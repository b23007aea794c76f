// Package federate implements virtual database integration (§1, §2):
// the component relations stay live and autonomous, and entity
// identification is maintained incrementally as tuples arrive — "in the
// case of federated databases … instance integration may have to be
// performed whenever updating is done on the participating databases"
// (§2), and the paper's conclusion makes query-time identification the
// ongoing-work item this package closes.
//
// A Federation holds the current matching state and supports:
//
//   - InsertR / InsertS: O(1 + candidates) incremental identification of
//     the new tuple against the opposite extended relation, with the
//     §3.2 uniqueness and consistency constraints enforced as insertion
//     guards (a violating insert is rejected and rolled back, the way a
//     database rejects a key violation);
//   - PrepareR / PrepareS + Pending.Commit: the same identification
//     split into a side-effect-free phase and an infallible apply phase,
//     so multi-federation coordinators (the hub package) can prepare an
//     insert against several pairwise states and commit all of them or
//     none;
//   - AddILFD: monotone knowledge growth — the state is rebuilt and the
//     §3.3 monotonicity property is asserted: every previously matched
//     pair must survive;
//   - Integrated / Result: the current integrated view for query
//     processing.
//
// Ownership. A Federation borrows its base relations (Config.R and
// Config.S) and never mutates them: it reads them only when it builds
// its state — in New, Restore and AddILFD's rebuild — and owns only
// what it derives from them: the extended relations R′/S′, their probe
// indexes and the matching table. The relation's owner appends each
// source tuple exactly once, after the pair has committed it: the hub
// appends to its canonical relation after every linked pair commits;
// InsertR / InsertS append to Config.R / Config.S themselves. Between a
// Commit and the owner's append the base relation is one tuple short of
// R′/S′; a rebuild in that window would lose the tuple, so owners
// append before anything can rebuild.
//
// Each side of the pair is compiled once per rebuild (the batch
// Result's match.SideExtender plus the key offsets and indexes below),
// so an insert identifies its one tuple the way §4.2 describes, with no
// per-insert relation or schema: the tuple is copied into a fresh
// NULL-padded tuple of the extended schema, its missing attributes are
// derived in place, and its projections are encoded into a stack
// scratch buffer for the probes. Incremental identification probes
// both sources of matching pairs the batch construction uses: the
// extended-key index and, per extra identity rule, the same hash
// blocks the engine's blocked join buckets by (rules without a usable
// equality predicate scan the opposite side, mirroring the engine's
// nested-loop fallback).
//
// Equivalence with batch identification (match.Build on the final
// relations) is the package's central invariant, pinned by tests.
package federate

import (
	"fmt"
	"sort"

	"entityid/internal/ilfd"
	"entityid/internal/integrate"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/schema"
)

// Federation is a live, incrementally maintained identification state.
type Federation struct {
	cfg match.Config
	res *match.Result
	// r / s are the two sides compiled once per rebuild for per-tuple
	// inserts.
	r, s side
	// idRules holds the incremental evaluation state of the extra
	// identity rules: compiled forms plus the blocked-join hash buckets
	// over both extended relations, maintained across inserts.
	idRules []idRuleState
	// gen counts state mutations (commits and rebuilds); a Pending
	// prepared at one generation refuses to commit at another.
	gen uint64
}

// side is one side of the pair compiled for per-tuple inserts.
type side struct {
	// base is the borrowed base relation's schema: inserted tuples must
	// fit it.
	base *schema.Schema
	// rel is the extended relation R′ or S′, which the federation owns.
	// Its candidate keys are the base keys renamed at the same offsets.
	rel *relation.Relation
	// ext is the Result's compiled extender of this side: it turns a
	// source tuple into a tuple of the extended relation's layout.
	ext *match.SideExtender
	// keyPos are the extended-key column offsets in the extended schema.
	keyPos []int
	// idx indexes the extended relation by its non-NULL extended-key
	// projection: projection -> tuple positions.
	idx map[string][]int
}

// newSide compiles one side of a fresh batch result over base.
func newSide(res *match.Result, base *relation.Relation, left bool) side {
	rel := res.SPrime
	if left {
		rel = res.RPrime
	}
	keyPos := keyOffsets(rel, res.ExtKey())
	return side{base: base.Schema(), rel: rel, ext: res.Side(left), keyPos: keyPos, idx: indexByKey(rel, keyPos)}
}

// sides returns the inserting side and the opposite one.
func (f *Federation) sides(left bool) (own, opp *side) {
	if left {
		return &f.r, &f.s
	}
	return &f.s, &f.r
}

// idRuleState is one extra identity rule prepared for incremental
// probing: the same hash-block discipline as the engine's
// blockedIdentityPairs, maintained tuple by tuple.
type idRuleState struct {
	rule rules.IdentityRule
	// skip marks rules mentioning an equality attribute absent from
	// either extended schema: the cross equality can never hold.
	skip bool
	// fallback marks rules with no usable cross-equality attribute,
	// which must scan the opposite side (the engine's nested-loop path).
	fallback bool
	// rPos / sPos are the equality-attribute offsets in R′/S′.
	rPos, sPos []int
	// rBlocks / sBlocks bucket each side's tuples by their non-NULL
	// equality projection, exactly like the blocked hash join.
	rBlocks, sBlocks map[string][]int
	// fwd / rev are the rule compiled in both orientations
	// (e1 ← R′, e2 ← S′ and the reverse).
	fwd, rev rules.CompiledIdentityRule
}

// blocks returns the equality offsets and hash blocks of one side.
func (st *idRuleState) blocks(left bool) ([]int, map[string][]int) {
	if left {
		return st.rPos, st.rBlocks
	}
	return st.sPos, st.sBlocks
}

// New builds the initial state from a configuration; the initial
// matching table must verify (fail-closed like System.Identify). The
// federation borrows cfg.R and cfg.S: it reads them here and on
// AddILFD, never copies or mutates them, and relies on their owner to
// append every committed tuple (see the package doc).
func New(cfg match.Config) (*Federation, error) {
	f := &Federation{cfg: cfg}
	if err := f.rebuild(); err != nil {
		return nil, err
	}
	return f, nil
}

// rebuild runs batch identification and refreshes the indexes.
func (f *Federation) rebuild() error {
	res, err := match.Build(f.cfg)
	if err != nil {
		return err
	}
	if err := res.Verify(); err != nil {
		return fmt.Errorf("federate: %w", err)
	}
	f.res = res
	f.r = newSide(res, f.cfg.R, true)
	f.s = newSide(res, f.cfg.S, false)
	f.idRules = buildIDRules(f.cfg.Identity, res.RPrime, res.SPrime)
	f.gen++
	return nil
}

// buildIDRules compiles the extra identity rules against the extended
// schemas and buckets both extended relations by each rule's equality
// projection.
func buildIDRules(identity []rules.IdentityRule, rp, sp *relation.Relation) []idRuleState {
	if len(identity) == 0 {
		return nil
	}
	rs, ss := rp.Schema(), sp.Schema()
	states := make([]idRuleState, len(identity))
	for n, rule := range identity {
		st := idRuleState{
			rule: rule,
			fwd:  rule.Compile(rs, ss),
			rev:  rule.Compile(ss, rs),
		}
		eq := rule.EqualityAttrs()
		for _, a := range eq {
			if !rs.Has(a) || !ss.Has(a) {
				st.skip = true
			}
		}
		switch {
		case st.skip:
		case len(eq) == 0:
			st.fallback = true
		default:
			st.rPos = make([]int, len(eq))
			st.sPos = make([]int, len(eq))
			for i, a := range eq {
				st.rPos[i] = rs.Index(a)
				st.sPos[i] = ss.Index(a)
			}
			st.rBlocks = indexByKey(rp, st.rPos)
			st.sBlocks = indexByKey(sp, st.sPos)
		}
		states[n] = st
	}
	return states
}

// keyOffsets resolves the extended-key attributes to column offsets in
// the extended relation's schema. Build guarantees they exist.
func keyOffsets(rel *relation.Relation, extKey []string) []int {
	pos := make([]int, len(extKey))
	for n, a := range extKey {
		pos[n] = rel.Schema().Index(a)
	}
	return pos
}

// indexByKey buckets a relation's tuple positions by their non-NULL
// projection onto pos, encoded by match.ProjectionKey — the encoding
// the batch join buckets by and prepare probes with, so incremental
// probes and batch construction can never disagree on key equality.
func indexByKey(rel *relation.Relation, keyPos []int) map[string][]int {
	idx := make(map[string][]int, rel.Len())
	for i, t := range rel.Tuples() {
		if k, ok := match.ProjectionKey(t, keyPos); ok {
			idx[k] = append(idx[k], i)
		}
	}
	return idx
}

// Result returns the current match result (shared; do not mutate).
func (f *Federation) Result() *match.Result { return f.res }

// MT returns the current matching table.
func (f *Federation) MT() *match.Table { return f.res.MT }

// Integrated builds the current integrated table.
func (f *Federation) Integrated() (*integrate.Table, error) {
	return integrate.Build(f.res, integrate.Options{})
}

// InsertR adds a tuple to relation R, identifies it incrementally, and
// returns the pairs it produced (at most one, by uniqueness). The
// insert is rejected — with the federation state and R unchanged — if
// it would make the matching table unsound (uniqueness or consistency
// violation) or violate R′'s candidate keys, which are R's keys checked
// after derivation. InsertR acts as R's owner: after the commit it
// appends the tuple to Config.R, so the caller must not append it too.
func (f *Federation) InsertR(t relation.Tuple) ([]match.Pair, error) {
	return f.insert(t, true)
}

// InsertS is InsertR for relation S.
func (f *Federation) InsertS(t relation.Tuple) ([]match.Pair, error) {
	return f.insert(t, false)
}

// insert is InsertR / InsertS: prepare, commit, then the owner's
// append to the base relation.
func (f *Federation) insert(t relation.Tuple, left bool) ([]match.Pair, error) {
	p, err := f.prepare(t, left)
	if err != nil {
		return nil, err
	}
	pairs, err := p.Commit()
	if err != nil {
		return nil, err
	}
	base := f.cfg.S
	if left {
		base = f.cfg.R
	}
	// Cannot fail: prepare checked t's shape, and R′/S′'s keys hold
	// every base key at the same offsets after derivation, which only
	// fills NULLs.
	if err := base.Insert(t); err != nil {
		return nil, fmt.Errorf("federate: base insert after commit: %w", err)
	}
	return pairs, nil
}

// Pending is a prepared, not yet applied insert: the new tuple has been
// validated, extended and identified against the current state without
// mutating anything. Commit applies it. A Pending is invalidated by any
// intervening mutation of the federation; coordinators must serialise
// prepare→commit windows per federation (Commit re-checks and fails on
// a stale Pending rather than corrupting state).
type Pending struct {
	f    *Federation
	left bool
	ext  relation.Tuple
	// key is ext's extended-key projection and blockKeys[i] its
	// projection onto identity rule i's equality attributes: the keys
	// the prepare probed with, which Commit indexes ext under. "" marks
	// a projection Commit does not index (a NULL in it, or a rule
	// without blocks); an encoded projection is never empty.
	key       string
	blockKeys []string
	// pairs are the matching pairs the commit will add; the new tuple's
	// index is its side's pre-commit length. atGen is the federation
	// generation the prepare ran against.
	pairs []match.Pair
	atGen uint64
	done  bool
}

// PrepareR validates and identifies a tuple destined for relation R
// without mutating the federation. The returned Pending reports the
// pairs the insert will produce and commits the insert on demand.
//
//entitylint:hotpath noio,nolock,noobs
func (f *Federation) PrepareR(t relation.Tuple) (*Pending, error) {
	return f.prepare(t, true)
}

// PrepareS is PrepareR for relation S.
//
//entitylint:hotpath noio,nolock,noobs
func (f *Federation) PrepareS(t relation.Tuple) (*Pending, error) {
	return f.prepare(t, false)
}

// Pairs returns the matching pairs the commit will add (the new
// tuple's index is the side's pre-commit length).
func (p *Pending) Pairs() []match.Pair {
	return append([]match.Pair(nil), p.pairs...)
}

// Left reports which side the pending insert targets.
func (p *Pending) Left() bool { return p.left }

// prepare identifies one tuple the way the paper does (§4.2): copy it
// into a fresh NULL-padded tuple of the extended schema, derive the
// missing attributes in place, then probe the opposite side's
// extended-key index and identity-rule blocks. Every probe key is
// encoded into one stack scratch buffer, and m[string(buf)] lookups do
// not allocate; only the keys Commit will index are kept as strings.
//
//entitylint:hotpath noio,nolock,noobs
func (f *Federation) prepare(t relation.Tuple, left bool) (*Pending, error) {
	own, opp := f.sides(left)
	if err := relation.CheckShape(own.base, t); err != nil {
		return nil, fmt.Errorf("federate: %w", err)
	}
	// Fixpoint conflicts are not rejections here, as in batch Build.
	ext, _, err := own.ext.ExtendTuple(t)
	if err != nil {
		return nil, fmt.Errorf("federate: extend: %w", err)
	}
	// R′/S′'s candidate keys are the base keys, checked after derivation:
	// a key column a rule derived a value into is enforced here exactly
	// as batch Build enforces it, and no base-key violation gets past it.
	if err := own.rel.CanInsert(ext); err != nil {
		return nil, fmt.Errorf("federate: %w", err)
	}
	p := &Pending{f: f, left: left, ext: ext, atGen: f.gen}

	var kb [128]byte
	var pb [4]int
	partners := pb[:0]
	if b, ok := relation.AppendProjection(kb[:0], ext, own.keyPos); ok {
		for _, j := range opp.idx[string(b)] {
			partners = addPartner(partners, j)
		}
		p.key = string(b)
	}
	// Probe the identity-rule hash blocks too: a tuple that matches
	// solely via an extra identity rule must be caught on insert, or the
	// batch ≡ incremental invariant breaks.
	partners = f.identityPartners(p, kb[:0], partners)
	if len(partners) > 1 {
		return nil, fmt.Errorf("federate: insert would match %d tuples at once (unsound)", len(partners))
	}
	for _, j := range partners {
		var pr match.Pair
		if left {
			if prev := f.res.MT.MatchesOfS(j); len(prev) > 0 {
				return nil, fmt.Errorf("federate: uniqueness violation: S tuple %d already matched to R tuple %d", j, prev[0])
			}
			pr = match.Pair{RIndex: own.rel.Len(), SIndex: j}
		} else {
			if prev := f.res.MT.MatchesOfR(j); len(prev) > 0 {
				return nil, fmt.Errorf("federate: uniqueness violation: R tuple %d already matched to S tuple %d", j, prev[0])
			}
			pr = match.Pair{RIndex: j, SIndex: own.rel.Len()}
		}
		// Consistency guard: a new pair must not be declared distinct.
		// The result's compiled distinctness rules are reused — the
		// candidate tuple has R′/S′ layout, which is all compiled
		// evaluation needs.
		rt, st := f.pairTuples(ext, j, left)
		if name, fires := f.res.DistinctFires(rt, st); fires {
			return nil, fmt.Errorf("federate: consistency violation: new tuple matches a pair distinctness rule %q forbids", name)
		}
		p.pairs = append(p.pairs, pr)
	}
	return p, nil
}

// addPartner appends opposite-side position j unless already present.
func addPartner(partners []int, j int) []int {
	for _, k := range partners {
		if k == j {
			return partners
		}
	}
	return append(partners, j)
}

// pairTuples orders the candidate extended tuple and opposite-side
// tuple j as (R′ tuple, S′ tuple).
func (f *Federation) pairTuples(ext relation.Tuple, j int, left bool) (rt, st relation.Tuple) {
	if left {
		return ext, f.res.SPrime.Tuple(j)
	}
	return f.res.RPrime.Tuple(j), ext
}

// identityPartners appends to partners the opposite-side tuple
// positions some extra identity rule pairs the pending tuple with:
// hash-block probing for rules with cross-equality attributes, a scan
// of the opposite side for fallback rules. It records in p the block
// keys Commit indexes the tuple under; buf is probe scratch.
func (f *Federation) identityPartners(p *Pending, buf []byte, partners []int) []int {
	for i := range f.idRules {
		st := &f.idRules[i]
		if st.skip {
			continue
		}
		if st.fallback {
			_, opp := f.sides(p.left)
			for j := 0; j < opp.rel.Len(); j++ {
				if f.identityHolds(st, p.ext, j, p.left) {
					partners = addPartner(partners, j)
				}
			}
			continue
		}
		pos, _ := st.blocks(p.left)
		_, opposite := st.blocks(!p.left)
		b, ok := relation.AppendProjection(buf[:0], p.ext, pos)
		if !ok {
			continue
		}
		for _, j := range opposite[string(b)] {
			if f.identityHolds(st, p.ext, j, p.left) {
				partners = addPartner(partners, j)
			}
		}
		if p.blockKeys == nil {
			p.blockKeys = make([]string, len(f.idRules))
		}
		p.blockKeys[i] = string(b)
	}
	return partners
}

// identityHolds reports whether rule st pairs the candidate extended
// tuple with opposite-side tuple j, in either orientation.
func (f *Federation) identityHolds(st *idRuleState, ext relation.Tuple, j int, left bool) bool {
	rt, stup := f.pairTuples(ext, j, left)
	return st.fwd.Holds(rt, stup) || st.rev.Holds(stup, rt)
}

// Commit applies a prepared insert to the pair's own state: extended
// relation, probe indexes, identity-rule blocks, matching pairs. It
// does not touch the base relation — appending the source tuple there
// is its owner's job, once the commit succeeded (see the package doc).
// It fails — with the state untouched — only on a stale Pending (any
// federation mutation since prepare: an insert on either side, or an
// AddILFD rebuild); under the documented serialise-per-federation
// discipline it cannot fail.
func (p *Pending) Commit() ([]match.Pair, error) {
	f := p.f
	if p.done {
		return nil, fmt.Errorf("federate: commit of an already committed insert")
	}
	if f.gen != p.atGen {
		return nil, fmt.Errorf("federate: stale prepared insert: federation mutated since prepare (generation %d, now %d)", p.atGen, f.gen)
	}
	own, _ := f.sides(p.left)
	if err := own.rel.Insert(p.ext); err != nil {
		return nil, fmt.Errorf("federate: extended insert: %w", err)
	}
	p.done = true
	pos := own.rel.Len() - 1
	if p.key != "" {
		own.idx[p.key] = append(own.idx[p.key], pos)
	}
	for i, k := range p.blockKeys {
		if k != "" {
			_, blocks := f.idRules[i].blocks(p.left)
			blocks[k] = append(blocks[k], pos)
		}
	}
	for _, pr := range p.pairs {
		f.res.MT.Add(pr)
	}
	f.gen++
	return append([]match.Pair(nil), p.pairs...), nil
}

// AddILFD grows the knowledge base and rebuilds the state, asserting
// §3.3 monotonicity: every previously matched pair must still be
// matched (by position). A non-monotone outcome — possible only when
// the new ILFD contradicts data or prior knowledge — is reported and
// the federation keeps its previous state.
func (f *Federation) AddILFD(fd ilfd.ILFD) error {
	prevPairs := append([]match.Pair(nil), f.res.MT.Pairs...)
	prev := f.cfg.ILFDs
	next := make(ilfd.Set, 0, len(prev)+1)
	next = append(next, prev...)
	next = append(next, fd)
	f.cfg.ILFDs = next
	if err := f.rebuild(); err != nil {
		f.cfg.ILFDs = prev
		if rerr := f.rebuild(); rerr != nil {
			return fmt.Errorf("federate: rollback failed: %v (original: %w)", rerr, err)
		}
		return err
	}
	for _, p := range prevPairs {
		if !f.res.MT.Contains(p.RIndex, p.SIndex) {
			err := fmt.Errorf("federate: ILFD %v breaks monotonicity: pair (%d,%d) lost", fd, p.RIndex, p.SIndex)
			f.cfg.ILFDs = prev
			if rerr := f.rebuild(); rerr != nil {
				return fmt.Errorf("federate: rollback failed: %v (original: %w)", rerr, err)
			}
			return err
		}
	}
	return nil
}

// Pairs returns the current matching pairs.
func (f *Federation) Pairs() []match.Pair {
	return append([]match.Pair(nil), f.res.MT.Pairs...)
}

// State is a federation's exported mutable state — the matching table
// plus the side lengths it was computed over — in the canonical order
// (sorted pairs). Snapshots store it so recovery can verify that a
// rebuilt federation reproduces exactly the state that was saved.
type State struct {
	Pairs      []match.Pair
	RLen, SLen int
}

// sortedPairs returns a (RIndex, SIndex)-sorted copy.
func sortedPairs(ps []match.Pair) []match.Pair {
	out := append([]match.Pair(nil), ps...)
	SortPairs(out)
	return out
}

// PairsPrefix returns a copy of the first n matching pairs in commit
// order. The matching table is append-only under the hub's commit lock,
// so a (length, prefix) pair taken at a consistent cut reproduces the
// table exactly as it stood at that cut — the basis of per-section
// snapshot capture under briefly-held locks.
func (f *Federation) PairsPrefix(n int) []match.Pair {
	return append([]match.Pair(nil), f.res.MT.Pairs[:n]...)
}

// SortPairs sorts a pair slice into the canonical (RIndex, SIndex)
// order snapshots store.
func SortPairs(ps []match.Pair) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].RIndex != ps[b].RIndex {
			return ps[a].RIndex < ps[b].RIndex
		}
		return ps[a].SIndex < ps[b].SIndex
	})
}

// Export captures the federation's mutable state for a snapshot.
func (f *Federation) Export() State {
	return State{
		Pairs: sortedPairs(f.res.MT.Pairs),
		RLen:  f.r.rel.Len(),
		SLen:  f.s.rel.Len(),
	}
}

// ExportOrdered captures the federation's mutable state with the
// matching table in COMMIT ORDER instead of the canonical sorted
// order. The hub's storage layer spills this form: the table is
// append-only under the commit lock, so the length-n prefix of a
// commit-order export reproduces any cut taken at length n — even a
// cut taken before the export. Restore accepts either form (it sorts
// before comparing).
func (f *Federation) ExportOrdered() State {
	return State{
		Pairs: append([]match.Pair(nil), f.res.MT.Pairs...),
		RLen:  f.r.rel.Len(),
		SLen:  f.s.rel.Len(),
	}
}

// Restore rebuilds a federation from a configuration (whose relations
// hold the snapshot-time tuples) and verifies it reproduces the
// exported state bit-for-bit: same side lengths, same matching pairs.
// Batch identification over the final relations is equivalent to the
// incremental inserts that produced the state (the package invariant),
// so any mismatch means the snapshot does not describe these relations
// — recovery fails closed instead of serving a silently different
// matching table.
func Restore(cfg match.Config, st State) (*Federation, error) {
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if got, want := f.r.rel.Len(), st.RLen; got != want {
		return nil, fmt.Errorf("federate: restore: R has %d tuples, state expects %d", got, want)
	}
	if got, want := f.s.rel.Len(), st.SLen; got != want {
		return nil, fmt.Errorf("federate: restore: S has %d tuples, state expects %d", got, want)
	}
	got := sortedPairs(f.res.MT.Pairs)
	want := sortedPairs(st.Pairs)
	if len(got) != len(want) {
		return nil, fmt.Errorf("federate: restore: rebuilt matching table has %d pairs, state expects %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return nil, fmt.Errorf("federate: restore: matching table diverges at pair %d: rebuilt (%d,%d), state (%d,%d)",
				i, got[i].RIndex, got[i].SIndex, want[i].RIndex, want[i].SIndex)
		}
	}
	// Adopt the state's pair order, not the batch rebuild's: callers
	// that spill and re-load live federations (the hub's storage tier)
	// record the table in commit order and read snapshot cuts as
	// prefixes of it, so the restored table must continue the recorded
	// order. The two orders hold the same set (just verified), so the
	// table's indexes are unaffected.
	f.res.MT.Pairs = append([]match.Pair(nil), st.Pairs...)
	return f, nil
}
