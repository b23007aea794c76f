package hub

import (
	"runtime"
	"strings"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/relation"
	"entityid/internal/value"
)

// residentBytesPerTupleBound caps TestResidentBytesPerTuple's figure.
// It is a gate: lower it when the layout shrinks, never raise it.
const residentBytesPerTupleBound = 2300

// TestResidentBytesPerTuple is the resident-memory gate: a memory hub
// linking every pair of a K=4 MultiGenerate workload, fed all of its
// tuples, must hold at most residentBytesPerTupleBound live heap bytes
// per tuple after two GCs. Each tuple's strings are fresh copies only
// the hub keeps, so the figure counts every byte stored for a tuple:
// the canonical relation, each pair's extended relation and indexes,
// the matching tables and the clusters.
func TestResidentBytesPerTuple(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 4, Entities: 400, PresenceFrac: 0.6,
		HomonymRate: 0.1, MissingPhone: 0.2, DirtyPhone: 0.1, Seed: 7,
	})
	before := liveHeap()
	h, err := NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	items := shuffled(w, 7)
	for i := range items {
		items[i].Tuple = freshStrings(items[i].Tuple)
	}
	for i, it := range items {
		if _, err := h.Insert(it.Source, it.Tuple); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	n := len(items)
	items = nil
	after := liveHeap()
	runtime.KeepAlive(h)
	per := float64(int64(after)-int64(before)) / float64(n)
	t.Logf("%d tuples, %.0f live heap bytes per tuple (bound %d)", n, per, residentBytesPerTupleBound)
	if per > residentBytesPerTupleBound {
		t.Errorf("%.0f live heap bytes per tuple, bound %d", per, residentBytesPerTupleBound)
	}
}

// liveHeap returns the live heap after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// freshStrings returns t with every string value copied, so the
// workload no longer shares its bytes.
func freshStrings(t relation.Tuple) relation.Tuple {
	out := make(relation.Tuple, len(t))
	for i, v := range t {
		if v.Kind() == value.KindString {
			v = value.String(strings.Clone(v.Str()))
		}
		out[i] = v
	}
	return out
}
