package federate

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/derive"
	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// kindWorld is a pair where R lacks speciality, which S models as a
// string, and the given ILFDs may derive it for R′ tuples. No initial
// tuple has cuisine "fusion" or name "B".
func kindWorld(t *testing.T, mode derive.Mode, fs ilfd.Set) match.Config {
	t.Helper()
	r := relation.New(schema.MustNew("R", []schema.Attribute{
		{Name: "name", Kind: value.KindString},
		{Name: "cuisine", Kind: value.KindString},
	}, []string{"name"}))
	r.MustInsert(s("A"), s("chinese"))
	sr := relation.New(schema.MustNew("S", []schema.Attribute{
		{Name: "name", Kind: value.KindString},
		{Name: "speciality", Kind: value.KindString},
	}, []string{"name"}))
	sr.MustInsert(s("A"), s("hunan"))
	return match.Config{
		R: r, S: sr,
		Attrs: []match.AttrMap{
			{Name: "name", R: "name", S: "name"},
			{Name: "cuisine", R: "cuisine"},
			{Name: "speciality", S: "speciality"},
		},
		ExtKey:     []string{"name"},
		ILFDs:      fs,
		DeriveMode: mode,
	}
}

// withR returns cfg whose R also holds tup, for batch comparisons.
func withR(t *testing.T, cfg match.Config, tup relation.Tuple) match.Config {
	t.Helper()
	cfg.R = cfg.R.Clone()
	if err := cfg.R.Insert(tup); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestPrepareRejectsDerivedValueOfWrongKind: an ILFD that derives an
// int for the string attribute speciality fires only for a tuple
// inserted after New. The insert is rejected exactly as batch Build
// rejects the same relation, and the federation is left unchanged.
func TestPrepareRejectsDerivedValueOfWrongKind(t *testing.T) {
	fs := ilfd.Set{{
		Antecedent: ilfd.Conditions{ilfd.C("cuisine", "fusion")},
		Consequent: ilfd.Conditions{{Attr: "speciality", Val: value.Int(7)}},
	}}
	cfg := kindWorld(t, derive.FirstMatch, fs)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before, gen := f.ExportOrdered(), f.gen
	bad := relation.Tuple{s("B"), s("fusion")}
	_, perr := f.PrepareR(bad)
	if perr == nil {
		t.Fatal("PrepareR accepted a derived value of the wrong kind")
	}
	_, berr := match.Build(withR(t, cfg, bad))
	if berr == nil {
		t.Fatal("batch Build accepted the same relation")
	}
	if !strings.Contains(perr.Error(), "int value, schema wants string") || !strings.HasSuffix(perr.Error(), berr.Error()) {
		t.Fatalf("prepare error %q does not carry the batch rejection %q", perr, berr)
	}
	if _, err := f.InsertR(bad); err == nil {
		t.Fatal("InsertR accepted a derived value of the wrong kind")
	}
	after := f.ExportOrdered()
	if f.gen != gen || after.RLen != before.RLen || after.SLen != before.SLen ||
		len(after.Pairs) != len(before.Pairs) || f.res.RPrime.Len() != before.RLen {
		t.Fatalf("rejected insert changed the federation: %+v -> %+v (gen %d -> %d)", before, after, gen, f.gen)
	}
	if _, err := f.InsertR(relation.Tuple{s("C"), s("thai")}); err != nil {
		t.Fatalf("valid insert after the rejection: %v", err)
	}
}

// TestPrepareRejectsDerivedKeyCollision: A(name, loc, kind) is keyed
// by (name, loc), and the ILFD kind=x -> loc=here derives a value into
// the key column loc. A second (n, NULL, x) passes A's own key check
// (a NULL key projection is not indexed) but collides in R′ after
// derivation. Prepare rejects it with the federation and A unchanged,
// and batch Build over A holding both tuples fails the same way.
func TestPrepareRejectsDerivedKeyCollision(t *testing.T) {
	str := func(n string) schema.Attribute { return schema.Attribute{Name: n, Kind: value.KindString} }
	a := relation.New(schema.MustNew("A", []schema.Attribute{str("name"), str("loc"), str("kind")}, []string{"name", "loc"}))
	b := relation.New(schema.MustNew("B", []schema.Attribute{str("name"), str("loc")}, []string{"name"}))
	b.MustInsert(s("m"), s("there"))
	cfg := match.Config{
		R: a, S: b,
		Attrs: []match.AttrMap{
			{Name: "name", R: "name", S: "name"},
			{Name: "loc", R: "loc", S: "loc"},
			{Name: "kind", R: "kind"},
		},
		ExtKey: []string{"name", "loc"},
		ILFDs:  ilfd.Set{ilfd.MustNew(ilfd.Conditions{ilfd.C("kind", "x")}, ilfd.Conditions{ilfd.C("loc", "here")})},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tup := relation.Tuple{s("n"), value.Null, s("x")}
	if _, err := f.InsertR(tup.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := a.CanInsert(tup); err != nil {
		t.Fatalf("A's own key refuses the duplicate, so the test does not reach R′'s key: %v", err)
	}
	before, gen, aLen := f.ExportOrdered(), f.gen, a.Len()
	const want = "key (name,loc) violation"
	if _, err := f.PrepareR(tup.Clone()); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("PrepareR of a derived key collision: %v, want %q", err, want)
	}
	if _, err := f.InsertR(tup.Clone()); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("InsertR of a derived key collision: %v, want %q", err, want)
	}
	if after := f.ExportOrdered(); f.gen != gen || !reflect.DeepEqual(after, before) || a.Len() != aLen {
		t.Fatalf("rejected insert changed the federation: %+v -> %+v (gen %d -> %d, |A| %d -> %d)",
			before, after, gen, f.gen, aLen, a.Len())
	}
	if _, err := match.Build(withR(t, cfg, tup)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("batch Build over A holding both tuples: %v, want %q", err, want)
	}
}

// TestPrepareIgnoresFixpointConflicts: in Fixpoint mode two ILFDs that
// derive different specialities for a new tuple are a reported
// conflict in batch Build but not a rejection, at prepare as in batch;
// the prepared tuple is batch Build's row.
func TestPrepareIgnoresFixpointConflicts(t *testing.T) {
	fs := ilfd.Set{
		ilfd.MustNew(ilfd.Conditions{ilfd.C("cuisine", "fusion")}, ilfd.Conditions{ilfd.C("speciality", "x")}),
		ilfd.MustNew(ilfd.Conditions{ilfd.C("name", "B")}, ilfd.Conditions{ilfd.C("speciality", "y")}),
	}
	cfg := kindWorld(t, derive.Fixpoint, fs)
	cfg.DisableProp1 = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tup := relation.Tuple{s("B"), s("fusion")}
	p, err := f.PrepareR(tup)
	if err != nil {
		t.Fatalf("PrepareR rejected a Fixpoint conflict: %v", err)
	}
	batch, err := match.Build(withR(t, cfg, tup))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Conflicts) == 0 {
		t.Fatal("batch Build reports no conflict; the test does not exercise one")
	}
	if want := batch.RPrime.Tuple(1); !p.ext.Identical(want) {
		t.Fatalf("prepared %v, batch row %v", p.ext, want)
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedTupleEqualsBatchRow is the recompute-from-scratch oracle
// for the compiled per-tuple path: over multi-source workloads, in both
// derivation modes, with renamed attributes and an identity rule, every
// accepted insert's prepared extended tuple is identical to the row
// match.Build puts at its position in R′/S′ of the final relations.
func TestPreparedTupleEqualsBatchRow(t *testing.T) {
	namePhone := rules.MustNewIdentity("name-phone", []rules.Predicate{
		{Left: rules.Attr1("name"), Op: rules.Eq, Right: rules.Attr2("name")},
		{Left: rules.Attr1("phone"), Op: rules.Eq, Right: rules.Attr2("phone")},
	})
	for _, seed := range []int64{3, 11} {
		w := datagen.MustMultiGenerate(datagen.MultiConfig{
			Sources: 4, Entities: 120, PresenceFrac: 0.6,
			HomonymRate: 0.15, MissingPhone: 0.2, DirtyPhone: 0.2, Seed: seed,
		})
		for i := range w.Names {
			for j := i + 1; j < len(w.Names); j++ {
				for _, mode := range []derive.Mode{derive.FirstMatch, derive.Fixpoint} {
					oraclePair(t, w, i, j, mode, []rules.IdentityRule{namePhone}, seed)
				}
			}
		}
	}
}

func oraclePair(t *testing.T, w *datagen.MultiWorkload, i, j int, mode derive.Mode, identity []rules.IdentityRule, seed int64) {
	t.Helper()
	mp := w.Pair(i, j)
	// The federation starts with the first half of each source; the
	// rest arrives interleaved.
	type item struct {
		left bool
		t    relation.Tuple
	}
	var items []item
	half := func(rel *relation.Relation, left bool) *relation.Relation {
		out := relation.New(rel.Schema())
		for n, tup := range rel.Tuples() {
			if n < rel.Len()/2 {
				if err := out.Insert(tup); err != nil {
					t.Fatal(err)
				}
				continue
			}
			items = append(items, item{left, tup})
		}
		return out
	}
	cfg := match.Config{
		R: half(w.Relations[i], true), S: half(w.Relations[j], false),
		Attrs: mp.Attrs, ExtKey: mp.ExtKey, ILFDs: mp.ILFDs,
		Identity: identity, DeriveMode: mode,
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("pair %d-%d %v: New: %v", i, j, mode, err)
	}
	prepared := map[bool]map[int]relation.Tuple{true: {}, false: {}}
	accepted := 0
	for _, it := range items {
		var p *Pending
		if it.left {
			p, err = f.PrepareR(it.t)
		} else {
			p, err = f.PrepareS(it.t)
		}
		if err != nil {
			continue // a §3.2 rejection: the tuple is in neither side
		}
		base := cfg.S
		if it.left {
			base = cfg.R
		}
		prepared[it.left][base.Len()] = p.ext
		if _, err := p.Commit(); err != nil {
			t.Fatal(err)
		}
		// The test owns the base relations: it appends the committed
		// tuple, as the hub does after every pair committed.
		if err := base.Insert(it.t); err != nil {
			t.Fatal(err)
		}
		accepted++
	}
	batch, err := match.Build(cfg)
	if err != nil {
		t.Fatalf("pair %d-%d %v: batch Build: %v", i, j, mode, err)
	}
	for left, rows := range prepared {
		rel := batch.SPrime
		if left {
			rel = batch.RPrime
		}
		for pos, ext := range rows {
			if !ext.Identical(rel.Tuple(pos)) {
				t.Fatalf("pair %d-%d %v left=%v position %d: prepared %v, batch row %v",
					i, j, mode, left, pos, ext, rel.Tuple(pos))
			}
		}
	}
	if accepted == 0 {
		t.Fatalf("pair %d-%d %v: no insert accepted; the oracle checked nothing", i, j, mode)
	}
	t.Logf("pair %d-%d %v: %d of %d inserts accepted and checked", i, j, mode, accepted, len(items))
}

// TestPrepareAllocs pins the compiled per-tuple path on the
// BenchmarkFederateInsert fixture: at most 10 allocations per
// PrepareR/PrepareS, matched or not.
func TestPrepareAllocs(t *testing.T) {
	w := datagen.MustGenerate(datagen.Config{
		Entities: 400, OverlapFrac: 0.5, HomonymRate: 0.1, ILFDCoverage: 0.8, Seed: 505,
	})
	f, err := New(w.MatchConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		left bool
		t    relation.Tuple
	}{
		"R": {true, relation.Tuple{s("bench-entity-1"), s("1 bench st"), s("chinese"), value.Null}},
		"S": {false, relation.Tuple{s("bench-entity-1"), s("bench city"), w.S.Tuple(0)[2], value.Null}},
	}
	// A matching insert: an S tuple agreeing on the extended key with
	// an unmatched R′ tuple whose speciality an instance ILFD derived.
	spec := f.res.RPrime.Schema().Index("speciality")
	for i, rt := range f.res.RPrime.Tuples() {
		if len(f.res.MT.MatchesOfR(i)) > 0 || rt[spec].IsNull() {
			continue
		}
		st := relation.Tuple{rt[0], s("fresh city"), rt[spec], value.Null}
		if p, err := f.PrepareS(st); err == nil && len(p.pairs) == 1 {
			cases["S matched"] = struct {
				left bool
				t    relation.Tuple
			}{false, st}
			break
		}
	}
	if _, ok := cases["S matched"]; !ok {
		t.Fatal("fixture has no matching S insert")
	}
	const bound = 10
	for name, c := range cases {
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			if c.left {
				_, err = f.PrepareR(c.t)
			} else {
				_, err = f.PrepareS(c.t)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs per prepare", name, allocs)
		if allocs > bound {
			t.Errorf("%s: %.1f allocs per prepare, bound %d", name, allocs, bound)
		}
	}
}
