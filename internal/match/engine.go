// The indexed/blocked/parallel evaluation engine behind Build, Classify
// and the |R|×|S| sweeps. Everything here is an execution strategy only:
// reference.go holds the naive formulation the engine must agree with
// bit-for-bit (pinned by the differential tests), and Config.Naive
// selects it at run time.
package match

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"entityid/internal/relation"
	"entityid/internal/rules"
)

// engine holds the distinctness rules compiled against the R′/S′
// schemas, in both (e1, e2) orientations: the rules range over all
// entity pairs, so (r, s) instantiates either (e1=r, e2=s) or
// (e1=s, e2=r) — Table 4 of the paper needs the second orientation (the
// Mughalai tuple lives in S).
type engine struct {
	fwd []rules.CompiledDistinctnessRule // e1 ← R′ tuple, e2 ← S′ tuple
	rev []rules.CompiledDistinctnessRule // e1 ← S′ tuple, e2 ← R′ tuple
}

// engine compiles the distinctness rules once per Result.
func (res *Result) engine() *engine {
	res.engOnce.Do(func() {
		e := &engine{
			fwd: make([]rules.CompiledDistinctnessRule, len(res.distinct)),
			rev: make([]rules.CompiledDistinctnessRule, len(res.distinct)),
		}
		rs, ss := res.RPrime.Schema(), res.SPrime.Schema()
		for i, d := range res.distinct {
			e.fwd[i] = d.Compile(rs, ss)
			e.rev[i] = d.Compile(ss, rs)
		}
		res.eng = e
	})
	return res.eng
}

// distinctFires reports whether any rule declares (rt, st) distinct in
// either orientation.
func (e *engine) distinctFires(rt, st relation.Tuple) bool {
	_, fires := e.distinctFiresNamed(rt, st)
	return fires
}

// distinctFiresNamed additionally reports the name of the first firing
// rule, in declaration order (for Verify's violation message, which must
// match the reference path).
func (e *engine) distinctFiresNamed(rt, st relation.Tuple) (string, bool) {
	for i := range e.fwd {
		if e.fwd[i].Holds(rt, st) || e.rev[i].Holds(st, rt) {
			return e.fwd[i].Name, true
		}
	}
	return "", false
}

// attrOffsets resolves attribute names to column offsets in rel's
// schema, failing on absent attributes.
func attrOffsets(rel *relation.Relation, attrs []string) ([]int, error) {
	out := make([]int, len(attrs))
	for n, a := range attrs {
		i := rel.Schema().Index(a)
		if i < 0 {
			return nil, fmt.Errorf("match: extended relation %s missing key attribute %q", rel.Schema().Name(), a)
		}
		out[n] = i
	}
	return out, nil
}

// ProjectionKey encodes the tuple's projection onto the given column
// offsets; ok is false when any projected value is NULL (NULL never
// joins, per value.Equal). Blocking soundness needs value.Equal(a, b)
// ⇒ Key(a) == Key(b) on every column, which value.Key guarantees (same
// kind, same contents, float zeros collapsed); key-equal NaNs merely
// over-generate candidates, which the full rule evaluation filters.
// It is relation.AppendProjection's encoding, which incremental
// maintenance (federate) probes with, so probes and the build-time
// join indexes agree.
func ProjectionKey(t relation.Tuple, idx []int) (string, bool) {
	var kb [64]byte
	b, ok := relation.AppendProjection(kb[:0], t, idx)
	if !ok {
		return "", false
	}
	return string(b), true
}

// blockedIdentityPairs evaluates the extra identity rules by hash-join
// candidate generation. For each rule, its cross-equality attributes
// (e1.A = e2.A predicates — §3.2 well-formedness guarantees every
// matched pair agrees, non-NULL, on them) drive a hash join of R′
// against S′; only the joined candidates get the full conjunction, in
// both orientations. Because cross-equality is symmetric in the two
// sides, one join covers both orientations. Rules without a usable
// equality predicate (all their attributes pinned by constants) fall
// back to the reference nested loop; rules mentioning an attribute
// absent from either schema can never hold and are skipped.
//
// base lists pairs already in the table (the extended-key join); they
// are excluded, exactly like the reference path's have-set.
func blockedIdentityPairs(rp, sp *relation.Relation, identity []rules.IdentityRule, base []Pair) []Pair {
	have := make(map[Pair]bool, len(base))
	for _, p := range base {
		have[p] = true
	}
	rs, ss := rp.Schema(), sp.Schema()
	var out []Pair
	var fallback []rules.IdentityRule
rule:
	for _, rule := range identity {
		eq := rule.EqualityAttrs()
		for _, a := range eq {
			if !rs.Has(a) || !ss.Has(a) {
				// e1.a = e2.a can never hold: the side missing the
				// attribute resolves to NULL in both orientations.
				continue rule
			}
		}
		if len(eq) == 0 {
			fallback = append(fallback, rule)
			continue
		}
		rIdx, _ := attrOffsets(rp, eq)
		sIdx, _ := attrOffsets(sp, eq)
		fwd := rule.Compile(rs, ss)
		rev := rule.Compile(ss, rs)
		buckets := make(map[string][]int)
		for j, st := range sp.Tuples() {
			if k, ok := ProjectionKey(st, sIdx); ok {
				buckets[k] = append(buckets[k], j)
			}
		}
		for i, rt := range rp.Tuples() {
			k, ok := ProjectionKey(rt, rIdx)
			if !ok {
				continue
			}
			for _, j := range buckets[k] {
				p := Pair{RIndex: i, SIndex: j}
				if have[p] {
					continue
				}
				st := sp.Tuple(j)
				if fwd.Holds(rt, st) || rev.Holds(st, rt) {
					have[p] = true
					out = append(out, p)
				}
			}
		}
	}
	if len(fallback) > 0 {
		out = append(out, referenceIdentityPairsHave(rp, sp, fallback, have)...)
	}
	return out
}

// sweepPlan is the evaluation plan for the distinctness rules over the
// R′×S′ grid. Each rule contributes two virtual rules (one per
// orientation: bit 2r forward, bit 2r+1 reverse); a virtual rule's
// single-side predicates are evaluated once per row and once per column
// into survival bitsets, so the per-cell test collapses to a bitset
// AND, with the (rare) cross predicates evaluated only for virtual
// rules surviving on both axes.
//
// The plan is cached on the Result and extended incrementally: the
// rule-level structure (words, axis predicates, cross predicates) is
// fixed per Result, and only the per-tuple survival bitsets grow as the
// relations grow between sweeps (federate inserts). Extension appends
// bitsets for the new tuples under Result.planMu; sweeps work on a
// value snapshot of the plan, so a concurrent later extension cannot
// touch the rows a running sweep reads.
type sweepPlan struct {
	words   int
	row     []axisPreds // per virtual rule: predicates reading the R′ tuple
	col     []axisPreds // per virtual rule: predicates reading the S′ tuple
	rowBits [][]uint64  // [row][word]
	colBits [][]uint64  // [col][word]
	cross   [][]rules.CompiledPredicate
}

// axisPreds is the single-side predicate set of one virtual rule on one
// grid axis.
type axisPreds struct {
	preds []rules.CompiledPredicate
	side  rules.Side
}

// newSweepPlan builds the rule-level plan structure with empty bitsets.
func (res *Result) newSweepPlan() *sweepPlan {
	eng := res.engine()
	n := len(eng.fwd)
	nv := 2 * n
	p := &sweepPlan{
		words: (nv + 63) / 64,
		row:   make([]axisPreds, nv),
		col:   make([]axisPreds, nv),
		cross: make([][]rules.CompiledPredicate, nv),
	}
	for r := 0; r < n; r++ {
		// Forward orientation: e1 ← R′ tuple (row), e2 ← S′ tuple (col).
		f1, f2, fc := eng.fwd[r].SidePredicates()
		p.row[2*r], p.col[2*r], p.cross[2*r] = axisPreds{f1, rules.E1}, axisPreds{f2, rules.E2}, fc
		// Reverse orientation: e1 ← S′ tuple (col), e2 ← R′ tuple (row).
		r1, r2, rc := eng.rev[r].SidePredicates()
		p.row[2*r+1], p.col[2*r+1], p.cross[2*r+1] = axisPreds{r2, rules.E2}, axisPreds{r1, rules.E1}, rc
	}
	return p
}

// bitsFor evaluates one tuple's single-side survival bitset.
func (p *sweepPlan) bitsFor(t relation.Tuple, axis []axisPreds) []uint64 {
	bits := make([]uint64, p.words)
vrule:
	for k, a := range axis {
		for _, pr := range a.preds {
			if !pr.HoldsSingle(a.side, t) {
				continue vrule
			}
		}
		bits[k/64] |= 1 << (k % 64)
	}
	return bits
}

// sweepPlanSnapshot returns the cached plan extended to cover every
// tuple currently in the extended relations. The returned value's
// bitset slice headers are private to the caller: later extensions
// append under planMu and never mutate entries below the snapshot's
// length.
func (res *Result) sweepPlanSnapshot() sweepPlan {
	res.planMu.Lock()
	defer res.planMu.Unlock()
	if res.plan == nil {
		res.plan = res.newSweepPlan()
	}
	p := res.plan
	for i := len(p.rowBits); i < res.RPrime.Len(); i++ {
		p.rowBits = append(p.rowBits, p.bitsFor(res.RPrime.Tuple(i), p.row))
	}
	for j := len(p.colBits); j < res.SPrime.Len(); j++ {
		p.colBits = append(p.colBits, p.bitsFor(res.SPrime.Tuple(j), p.col))
	}
	return *p
}

// fires reports whether some distinctness rule declares cell (i, j)
// distinct, using the precomputed survival bitsets.
func (p *sweepPlan) fires(res *Result, i, j int) bool {
	rb, cb := p.rowBits[i], p.colBits[j]
	for w := 0; w < p.words; w++ {
		live := rb[w] & cb[w]
		for live != 0 {
			k := w*64 + bits.TrailingZeros64(live)
			live &= live - 1
			cross := p.cross[k]
			if len(cross) == 0 {
				return true
			}
			rt, st := res.RPrime.Tuple(i), res.SPrime.Tuple(j)
			t1, t2 := rt, st
			if k%2 == 1 {
				t1, t2 = st, rt
			}
			ok := true
			for _, pr := range cross {
				if !pr.Holds(t1, t2) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
	}
	return false
}

// rowMatches returns the sorted matched columns of row i, so the sweep
// can walk them in step with j instead of hashing every cell.
func (res *Result) rowMatches(i int) []int {
	js := res.MT.byR[i]
	if len(js) == 0 {
		return nil
	}
	out := append([]int(nil), js...)
	sort.Ints(out)
	return out
}

// sweepRow classifies every cell of row i in column order, invoking
// visit per cell until it returns false.
func (res *Result) sweepRow(plan *sweepPlan, i, cols int, visit func(j int, v Verdict) bool) {
	mcols := res.rowMatches(i)
	ptr := 0
	for j := 0; j < cols; j++ {
		for ptr < len(mcols) && mcols[ptr] < j {
			ptr++
		}
		var v Verdict
		switch {
		case ptr < len(mcols) && mcols[ptr] == j:
			v = Matching
		case plan.fires(res, i, j):
			v = NotMatching
		default:
			v = Undetermined
		}
		if !visit(j, v) {
			return
		}
	}
}

// sweepGrain is the number of grid rows a worker claims at a time.
const sweepGrain = 16

// workerCount sizes the pool for a grid of the given row count:
// GOMAXPROCS (so operator limits are respected) capped by the number of
// row blocks.
func workerCount(rows int) int {
	w := runtime.GOMAXPROCS(0)
	if blocks := (rows + sweepGrain - 1) / sweepGrain; w > blocks {
		w = blocks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelCounts tallies the Figure 3 partition with the grid's rows
// sharded across a worker pool. Tallies are additive, so the merge
// order cannot affect the result.
func (res *Result) parallelCounts() (matching, notMatching, undetermined int) {
	res.MT.index() // freeze the pair index before fan-out
	rows, cols := res.RPrime.Len(), res.SPrime.Len()
	if rows == 0 || cols == 0 {
		return 0, 0, 0
	}
	plan := res.sweepPlanSnapshot()
	workers := workerCount(rows)
	type tally struct{ m, n, u int }
	tallies := make([]tally, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var t tally
			for {
				lo := int(next.Add(sweepGrain)) - sweepGrain
				if lo >= rows {
					break
				}
				for i := lo; i < min(lo+sweepGrain, rows); i++ {
					res.sweepRow(&plan, i, cols, func(_ int, v Verdict) bool {
						switch v {
						case Matching:
							t.m++
						case NotMatching:
							t.n++
						default:
							t.u++
						}
						return true
					})
				}
			}
			tallies[w] = t
		}(w)
	}
	wg.Wait()
	for _, t := range tallies {
		matching += t.m
		notMatching += t.n
		undetermined += t.u
	}
	return matching, notMatching, undetermined
}

// parallelSweep enumerates grid pairs with the given verdict in
// row-major order. An unlimited sweep (limit <= 0) shards contiguous
// row blocks across a worker pool and concatenates block results in
// block order, so the output is identical to the sequential
// enumeration. A limited sweep walks the grid in order with early
// exit instead — still through the sweep plan, but without
// classifying cells past the limit the way full-grid sharding would.
func (res *Result) parallelSweep(want Verdict, limit int) []Pair {
	res.MT.index()
	rows, cols := res.RPrime.Len(), res.SPrime.Len()
	if rows == 0 || cols == 0 {
		return nil
	}
	plan := res.sweepPlanSnapshot()
	if limit > 0 {
		var out []Pair
		for i := 0; i < rows && len(out) < limit; i++ {
			res.sweepRow(&plan, i, cols, func(j int, v Verdict) bool {
				if v == want {
					out = append(out, Pair{RIndex: i, SIndex: j})
				}
				return len(out) < limit
			})
		}
		return out
	}
	blocks := (rows + sweepGrain - 1) / sweepGrain
	results := make([][]Pair, blocks)
	workers := workerCount(rows)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= blocks {
					break
				}
				lo, hi := b*sweepGrain, min((b+1)*sweepGrain, rows)
				var out []Pair
				for i := lo; i < hi; i++ {
					res.sweepRow(&plan, i, cols, func(j int, v Verdict) bool {
						if v == want {
							out = append(out, Pair{RIndex: i, SIndex: j})
						}
						return true
					})
				}
				results[b] = out
			}
		}()
	}
	wg.Wait()
	var out []Pair
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}
