package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"

	"entityid"
	"entityid/internal/datagen"
	"entityid/internal/relation"
	"entityid/internal/value"
)

// generate builds a workload's K sources from the seed. Every workload
// draws from the same generator family the hub's own tests use: a
// restaurant universe projected into K sources with no common key,
// matched only through the {name, cuisine} extended key with cuisine
// derived by ILFDs where a source records speciality instead.
func generate(k, entities int, seed int64) (*datagen.MultiWorkload, error) {
	return datagen.MultiGenerate(datagen.MultiConfig{
		Sources: k, Entities: entities, PresenceFrac: 0.6,
		HomonymRate: 0.1, MissingPhone: 0.1, DirtyPhone: 0.2,
		Seed: seed,
	})
}

// item is one insert of the workload: source ordinal and tuple.
type item struct {
	src int
	t   entityid.Tuple
}

// shuffled returns every tuple of the workload in a seeded random
// order.
func shuffled(w *datagen.MultiWorkload, rng *rand.Rand) []item {
	var out []item
	for k, rel := range w.Relations {
		for _, t := range rel.Tuples() {
			out = append(out, item{src: k, t: t})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// userBytes is the size of a tuple as a client sends it: one NDJSON
// line of the daemon's insert endpoint.
func userBytes(source string, t entityid.Tuple) int64 {
	vals := make([]any, len(t))
	for i, v := range t {
		if !v.IsNull() {
			vals[i] = v.Str()
		}
	}
	line, err := json.Marshal(struct {
		Source string `json:"source"`
		Tuple  []any  `json:"tuple"`
	}{source, vals})
	if err != nil {
		panic(err) // strings and nulls always marshal
	}
	return int64(len(line)) + 1
}

// openHub opens a durable hub with the daemon's default flush policy:
// a background snapshot every 1024 commits and no forced fsync
// (durability between snapshots is the page cache).
func openHub(dir string, wl *workload) (*entityid.Hub, error) {
	return entityid.OpenHub(dir,
		entityid.WithSnapshotEvery(1024), entityid.WithSyncEvery(0),
		entityid.WithStore(wl.backend),
		entityid.WithStoreBudgets(wl.hotClusterEntries, wl.hotPairs))
}

// pairSpec lifts the generator's link knowledge for sources i and j
// into the public link builder the daemon's /v1/links handler uses.
func pairSpec(w *datagen.MultiWorkload, i, j int) *entityid.PairSpec {
	mp := w.Pair(i, j)
	p := entityid.NewPair(mp.Left, mp.Right)
	for _, a := range mp.Attrs {
		p.MapAttr(a.Name, a.R, a.S)
	}
	p.SetExtendedKey(mp.ExtKey...)
	for _, f := range mp.ILFDs {
		p.AddILFD(f)
	}
	return p
}

// register adds the K sources, seeded with rels (empty when rels is
// nil), and links every pair.
func register(h *entityid.Hub, w *datagen.MultiWorkload, rels []*relation.Relation) error {
	for k, name := range w.Names {
		rel := relation.New(w.Relations[k].Schema())
		if rels != nil {
			rel = rels[k]
		}
		if err := h.AddSource(name, rel); err != nil {
			return fmt.Errorf("add source %s: %w", name, err)
		}
	}
	for i := range w.Names {
		for j := i + 1; j < len(w.Names); j++ {
			if err := h.Link(pairSpec(w, i, j)); err != nil {
				return fmt.Errorf("link %s-%s: %w", w.Names[i], w.Names[j], err)
			}
		}
	}
	return nil
}

// partition renders the hub's clusters canonically, one line per
// cluster: its ID and its members as source/index.
func partition(h *entityid.Hub) []string {
	var out []string
	var b strings.Builder
	for c := range h.ClustersIter() {
		b.Reset()
		b.WriteString(c.ID)
		for _, m := range c.Members {
			b.WriteByte(' ')
			b.WriteString(m.Source)
			b.WriteByte('/')
			b.WriteString(strconv.Itoa(m.Index))
		}
		out = append(out, b.String())
	}
	return out
}

// fingerprint hashes a partition.
func fingerprint(p []string) uint64 {
	f := fnv.New64a()
	for _, line := range p {
		f.Write([]byte(line))
		f.Write([]byte{'\n'})
	}
	return f.Sum64()
}

// batchPartition is the from-scratch oracle: a fresh memory hub seeded
// with the committed tuples (per source, in commit order) and then
// linked, so every pair is identified in one batch. Batch ≡
// incremental means its partition equals the durable hub's.
func batchPartition(w *datagen.MultiWorkload, committed [][]entityid.Tuple) ([]string, error) {
	rels := make([]*relation.Relation, len(w.Names))
	for k := range w.Names {
		rels[k] = relation.New(w.Relations[k].Schema())
		for _, t := range committed[k] {
			if err := rels[k].Insert(t); err != nil {
				return nil, fmt.Errorf("batch oracle: %s: %w", w.Names[k], err)
			}
		}
	}
	h := entityid.NewHub()
	if err := register(h, w, rels); err != nil {
		return nil, fmt.Errorf("batch oracle: %w", err)
	}
	return partition(h), nil
}

// samePartition compares two canonical partitions and describes the
// first difference.
func samePartition(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d clusters, batch recomputation has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("cluster %d is %q, batch recomputation has %q", i, got[i], want[i])
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

// checkCluster verifies one read answer: it holds the looked-up tuple
// at its position and at most one tuple per source. It allocates
// nothing on success, so it does not disturb the read path's
// allocation figures.
func checkCluster(c entityid.EntityCluster, source string, idx int, key entityid.Tuple) error {
	found := false
	for i, m := range c.Members {
		for _, prev := range c.Members[:i] {
			if prev.Source == m.Source {
				return fmt.Errorf("cluster %s holds two tuples of %s", c.ID, m.Source)
			}
		}
		if m.Source == source && m.Index == idx {
			if len(m.Tuple) < 2 || !value.Identical(m.Tuple[0], key[0]) || !value.Identical(m.Tuple[1], key[1]) {
				return fmt.Errorf("cluster %s: %s/%d is %v, looked up %v", c.ID, source, idx, m.Tuple, key[:2])
			}
			found = true
		}
	}
	if !found {
		return fmt.Errorf("cluster %s lacks the looked-up tuple %s/%d", c.ID, source, idx)
	}
	return nil
}
