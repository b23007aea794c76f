// Package derive applies ILFDs to relations to fill in missing
// extended-key attribute values, the R → R′ extension step of §4.2.
//
// Two modes reproduce the two derivation disciplines discussed in the
// paper:
//
//   - FirstMatch mirrors the Prolog prototype (§6.1): ILFDs are tried in
//     order and a cut prevents later rules from firing for an attribute
//     once one has succeeded. Rule order is significant; conflicting
//     ILFDs are silently resolved in favour of the earliest.
//
//   - Fixpoint is order-insensitive: all applicable ILFDs fire
//     repeatedly until no new values are derivable, and two ILFDs
//     deriving different values for the same attribute of the same tuple
//     is reported as a conflict instead of masked.
//
// Both modes chain: a derived value can satisfy another ILFD's
// antecedent (the paper's I9 = I7 ∘ I8 example: street → county and
// name ∧ county → speciality compose to derive speciality from name and
// street). Attributes that no ILFD derives default to NULL, matching the
// prototype's "assert NULL after all ILFDs fail" idiom (§6.2).
package derive

import (
	"fmt"
	"sort"

	"entityid/internal/ilfd"
	"entityid/internal/ra"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// Mode selects the derivation discipline.
type Mode int

// The derivation modes.
const (
	// FirstMatch applies ILFDs in order with cut semantics (the Prolog
	// prototype's behaviour).
	FirstMatch Mode = iota
	// Fixpoint applies all ILFDs to a fixpoint and reports conflicts.
	Fixpoint
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case FirstMatch:
		return "first-match"
	case Fixpoint:
		return "fixpoint"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Conflict records two ILFDs deriving different values for the same
// attribute of the same tuple (Fixpoint mode only).
type Conflict struct {
	TupleIndex int
	Attr       string
	Old, New   value.Value
}

// Error satisfies the error interface.
func (c Conflict) Error() string {
	return fmt.Sprintf("derive: conflict on tuple %d attribute %q: %s vs %s",
		c.TupleIndex, c.Attr, c.Old, c.New)
}

// Options configures Extend.
type Options struct {
	// Mode selects cut vs fixpoint semantics. The zero value is
	// FirstMatch, the prototype's behaviour.
	Mode Mode
	// MaxRounds bounds chaining depth (0 means len(ILFDs)+1 rounds, which
	// suffices for any terminating chain).
	MaxRounds int
}

// Extend returns a copy of rel extended with the `extra` attributes
// (NULL-initialised) and with every attribute of the *extended* schema
// that the ILFDs can derive filled in. Existing non-NULL values are
// never overwritten: source data takes precedence over derived data, and
// in Fixpoint mode an ILFD contradicting an existing non-NULL value is a
// conflict.
//
// The relation's candidate keys are preserved; the extended relation is
// named name. For repeated extensions with the same ILFD set and schema
// (e.g. per-insert incremental identification), compile an Extender once.
func Extend(rel *relation.Relation, name string, extra []schema.Attribute, fs ilfd.Set, opts Options) (*relation.Relation, []Conflict, error) {
	return NewExtender(fs, opts).Extend(rel, name, extra)
}

// ExtendSchema returns sch with the extra attributes appended under the
// new relation name — the schema of Extend's result. An extra
// attribute the schema already declares is an error.
func ExtendSchema(sch *schema.Schema, name string, extra []schema.Attribute) (*schema.Schema, error) {
	for _, a := range extra {
		if sch.Has(a.Name) {
			return nil, fmt.Errorf("derive: relation %s already has attribute %q", sch.Name(), a.Name)
		}
	}
	return sch.Extend(name, extra)
}

// Extender applies a fixed ILFD set under fixed options.
type Extender struct {
	fs   ilfd.Set
	opts Options
}

// NewExtender prepares an extender for the ILFD set.
func NewExtender(fs ilfd.Set, opts Options) *Extender {
	return &Extender{fs: fs, opts: opts}
}

// Extend is Extend with the extender's ILFD set and options.
func (e *Extender) Extend(rel *relation.Relation, name string, extra []schema.Attribute) (*relation.Relation, []Conflict, error) {
	extSch, err := ExtendSchema(rel.Schema(), name, extra)
	if err != nil {
		return nil, nil, err
	}
	return e.Compile(extSch).Extend(rel)
}

// Compiled is an Extender resolved against one extended schema: every
// ILFD's antecedent and consequent conditions are column offsets, and
// the discrimination index is keyed by (column, value). Derivation then
// indexes raw tuples and builds no strings. It is immutable, so one
// Compiled serves concurrent callers.
type Compiled struct {
	sch       *schema.Schema
	mode      Mode
	maxRounds int
	rules     []compiledILFD
	ix        ilfdIndex
}

// compiledILFD is one ILFD over column offsets. A condition on an
// attribute the schema lacks has column -1: such an antecedent can
// never hold (the rule is left out of the index), and such a
// consequent is dropped.
type compiledILFD struct {
	ante []colVal
	cons []consequent
}

// colVal is the condition "column col holds val".
type colVal struct {
	col int
	val value.Value
}

// consequent is a derived value for column col; attr names the column
// for conflict reports.
type consequent struct {
	col  int
	attr string
	val  value.Value
}

// Compile resolves the extender against the extended schema extSch.
func (e *Extender) Compile(extSch *schema.Schema) *Compiled {
	maxRounds := e.opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = len(e.fs) + 1
	}
	c := &Compiled{
		sch:       extSch,
		mode:      e.opts.Mode,
		maxRounds: maxRounds,
		rules:     make([]compiledILFD, len(e.fs)),
		ix:        ilfdIndex{byCol: make([]map[value.Value][]int, extSch.Arity())},
	}
	for fi, f := range e.fs {
		r := &c.rules[fi]
		for _, cond := range f.Consequent {
			if i := extSch.Index(cond.Attr); i >= 0 {
				r.cons = append(r.cons, consequent{col: i, attr: cond.Attr, val: cond.Val})
			}
		}
		if len(f.Antecedent) == 0 {
			c.ix.always = append(c.ix.always, fi)
			continue
		}
		holdable := true
		for _, cond := range f.Antecedent {
			i := extSch.Index(cond.Attr)
			holdable = holdable && i >= 0
			r.ante = append(r.ante, colVal{col: i, val: cond.Val})
		}
		if !holdable {
			continue
		}
		min := f.Antecedent[0]
		for _, cond := range f.Antecedent[1:] {
			if cond.Key() < min.Key() {
				min = cond
			}
		}
		col := extSch.Index(min.Attr)
		if c.ix.byCol[col] == nil {
			c.ix.byCol[col] = make(map[value.Value][]int)
		}
		c.ix.byCol[col][min.Val] = append(c.ix.byCol[col][min.Val], fi)
	}
	return c
}

// Extend derives every tuple of rel, whose schema must be the prefix of
// the compiled schema that ExtendSchema extended.
func (c *Compiled) Extend(rel *relation.Relation) (*relation.Relation, []Conflict, error) {
	out := relation.New(c.sch)
	var conflicts []Conflict
	for idx, t := range rel.Tuples() {
		// The zero Value is NULL, so the fresh tuple is already padded.
		ext := make(relation.Tuple, c.sch.Arity())
		copy(ext, t)
		rowConflicts, err := c.derive(ext, idx)
		if err != nil {
			return nil, nil, err
		}
		conflicts = append(conflicts, rowConflicts...)
		if err := out.Insert(ext); err != nil {
			return nil, nil, fmt.Errorf("derive: %w", err)
		}
	}
	return out, conflicts, nil
}

// ExtendTuple derives a single pre-padded tuple in place (the tuple
// must already have the compiled schema's arity, with NULLs in
// underived positions) and checks the result against the schema as
// Extend's insert does: a derived value of the wrong kind is an error.
// It returns the conflicts found (Fixpoint mode). This is the
// per-insert path of incremental identification.
//
//entitylint:hotpath nolock,noobs,noio
func (c *Compiled) ExtendTuple(ext relation.Tuple) ([]Conflict, error) {
	if len(ext) != c.sch.Arity() {
		return nil, fmt.Errorf("derive: tuple arity %d, schema wants %d", len(ext), c.sch.Arity())
	}
	conflicts, err := c.derive(ext, 0)
	if err != nil {
		return nil, err
	}
	if err := relation.CheckShape(c.sch, ext); err != nil {
		return nil, fmt.Errorf("derive: %w", err)
	}
	return conflicts, nil
}

// ilfdIndex is a discrimination index over an ILFD set: rules grouped
// by their canonically smallest antecedent condition, so a tuple only
// examines rules whose indexed condition its current values could
// satisfy (a rule fires only when its whole antecedent holds, so any
// one condition is a sound index key; the smallest is chosen so the
// keying does not depend on how the caller ordered the antecedent).
// ilfd.New normalizes antecedents into sorted order, but ILFD values
// can be constructed as raw literals, so the minimum is computed here
// rather than assumed at position 0. Rules with empty antecedents are
// always candidates. Conditions are keyed by column, then by value:
// Value is comparable, and struct equality coincides with value.Equal
// on the non-NULL values candidates looks up.
type ilfdIndex struct {
	byCol  []map[value.Value][]int
	always []int
}

// candidates returns, in ascending rule order, the indexes of rules
// whose indexed (canonically smallest) antecedent condition holds in
// ext (plus the empty-antecedent rules). scratch is reused across
// calls.
func (ix *ilfdIndex) candidates(ext relation.Tuple, scratch []int) []int {
	out := append(scratch[:0], ix.always...)
	for i, m := range ix.byCol {
		if m != nil && !ext[i].IsNull() {
			out = append(out, m[ext[i]]...)
		}
	}
	sort.Ints(out)
	return out
}

// holds reports whether every antecedent condition of rule fi holds in
// ext (matching-level equality: a NULL column satisfies nothing).
func (c *Compiled) holds(fi int, ext relation.Tuple) bool {
	for _, cv := range c.rules[fi].ante {
		if cv.col < 0 || !value.Equal(ext[cv.col], cv.val) {
			return false
		}
	}
	return true
}

// derive fills derivable NULL attributes of ext in place. Only rules
// surfaced by the discrimination index are examined each round, and the
// pruned pass is exactly equivalent to an unindexed in-order pass: when
// a firing changes ext, the candidate list is refreshed and iteration
// resumes just past the fired rule, so rules a mid-round derivation
// enables fire at the same position — and under the same cut state — as
// they would without pruning. (Rules earlier than the firing one wait
// for the next round in both disciplines: the pass already moved past
// them.) Scratch state lives on the stack for ordinary arities.
func (c *Compiled) derive(ext relation.Tuple, idx int) ([]Conflict, error) {
	if c.mode != FirstMatch && c.mode != Fixpoint {
		return nil, fmt.Errorf("derive: unknown mode %v", c.mode)
	}
	var conflicts []Conflict
	var candBuf [32]int
	scratch := candBuf[:0]
	// FirstMatch keeps a cut per column: once a rule has set an
	// attribute, later rules never touch it. Chaining still happens
	// across rounds because newly set attributes can satisfy other
	// antecedents.
	var cutBuf [32]bool
	cut := cutBuf[:0]
	if c.mode == FirstMatch {
		if len(ext) <= len(cutBuf) {
			cut = cutBuf[:len(ext)]
		} else {
			cut = make([]bool, len(ext))
		}
	}
	for round := 0; round < c.maxRounds; round++ {
		changed := false
		scratch = c.ix.candidates(ext, scratch)
		k := 0
		for k < len(scratch) {
			fi := scratch[k]
			if c.holds(fi, ext) && c.fire(fi, ext, idx, cut, &conflicts) {
				changed = true
				scratch = c.ix.candidates(ext, scratch)
				k = sort.SearchInts(scratch, fi+1)
				continue
			}
			k++
		}
		if !changed {
			break
		}
	}
	return conflicts, nil
}

// fire applies rule fi's consequents to ext and reports whether ext
// changed. FirstMatch honours and sets the cut; Fixpoint records each
// distinct disagreement with an existing value as a conflict.
func (c *Compiled) fire(fi int, ext relation.Tuple, idx int, cut []bool, conflicts *[]Conflict) bool {
	changed := false
	for _, cs := range c.rules[fi].cons {
		i := cs.col
		switch c.mode {
		case FirstMatch:
			if cut[i] {
				continue
			}
			// A present source value wins too: the prototype's rule order
			// places facts before ILFDs, so the attribute is cut either way.
			cut[i] = true
			if ext[i].IsNull() {
				ext[i] = cs.val
				changed = true
			}
		case Fixpoint:
			cur := ext[i]
			if cur.IsNull() {
				ext[i] = cs.val
				changed = true
				continue
			}
			if !value.Equal(cur, cs.val) && !reported(*conflicts, cs.attr, cur, cs.val) {
				*conflicts = append(*conflicts, Conflict{
					TupleIndex: idx, Attr: cs.attr, Old: cur, New: cs.val,
				})
			}
		}
	}
	return changed
}

// reported reports whether this tuple's conflicts already hold the
// disagreement (attr, old, new), compared by value key.
func reported(conflicts []Conflict, attr string, old, new value.Value) bool {
	for _, cf := range conflicts {
		if cf.Attr == attr && cf.Old.Key() == old.Key() && cf.New.Key() == new.Key() {
			return true
		}
	}
	return false
}

// Derivable returns, for each attribute name, whether some ILFD in fs
// has it as a consequent — i.e. whether derivation could ever supply it.
// Used to report which missing extended-key attributes are simply
// unobtainable (they stay NULL for every tuple).
func Derivable(fs ilfd.Set) map[string]bool {
	out := map[string]bool{}
	for _, f := range fs {
		for _, c := range f.Consequent {
			out[c.Attr] = true
		}
	}
	return out
}

// ExtendWithTables derives missing attributes relationally, the §4.2
// formulation: for each ILFD table IM(x̄,y), R_y = Π_{K_R,y}(R ⋈_x̄ IM)
// and the derived values are folded back onto R keyed by K_R (the
// paper's series of outer joins). Chaining across tables is achieved by
// iterating passes until a fixpoint: a county derived by one table can
// feed a later speciality table, reproducing the I9 = I7 ∘ I8 chain.
//
// Semantics match Extend over the tables' expanded ILFDs: in FirstMatch
// mode an attribute set in an earlier pass or by an earlier table is
// never overwritten; in Fixpoint mode a disagreeing derivation is
// reported as a Conflict. Derived-value folding is keyed on the source
// relation's primary key, as in the paper's expressions; tuples whose
// primary key contains NULL cannot be addressed relationally and are
// left for rule-driven derivation.
func ExtendWithTables(rel *relation.Relation, name string, extra []schema.Attribute, tables []*ilfd.Table, opts Options) (*relation.Relation, []Conflict, error) {
	sch := rel.Schema()
	for _, a := range extra {
		if sch.Has(a.Name) {
			return nil, nil, fmt.Errorf("derive: relation %s already has attribute %q", sch.Name(), a.Name)
		}
	}
	extSch, err := sch.Extend(name, extra)
	if err != nil {
		return nil, nil, err
	}
	// Working tuples, NULL-padded.
	work := make([]relation.Tuple, rel.Len())
	for i, t := range rel.Tuples() {
		ext := make(relation.Tuple, extSch.Arity())
		copy(ext, t)
		for j := sch.Arity(); j < extSch.Arity(); j++ {
			ext[j] = value.Null
		}
		work[i] = ext
	}
	// Primary-key positions for folding derived values back.
	pk := sch.PrimaryKey()
	pkIdx := make([]int, len(pk))
	for i, a := range pk {
		pkIdx[i] = extSch.Index(a)
	}
	keyOf := func(t relation.Tuple) (string, bool) {
		k := ""
		for n, i := range pkIdx {
			if t[i].IsNull() {
				return "", false
			}
			if n > 0 {
				k += "\x1f"
			}
			k += t[i].Key()
		}
		return k, true
	}
	index := map[string]int{}
	for i, t := range work {
		if k, ok := keyOf(t); ok {
			index[k] = i
		}
	}

	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = len(tables) + 1
	}
	var conflicts []Conflict
	seenConflict := map[string]bool{}
	for round := 0; round < maxRounds; round++ {
		changed := false
		// Materialize the current working state for joining.
		cur := relation.New(extSch)
		for _, t := range work {
			if err := cur.Insert(t.Clone()); err != nil {
				return nil, nil, fmt.Errorf("derive: materialize: %w", err)
			}
		}
		for _, tab := range tables {
			yPos := extSch.Index(tab.To())
			if yPos < 0 {
				continue
			}
			usable := true
			conds := make([]ra.On, 0, len(tab.From()))
			for _, a := range tab.From() {
				if !extSch.Has(a) {
					usable = false
					break
				}
				conds = append(conds, ra.On{Left: a, Right: a})
			}
			if !usable {
				continue
			}
			// R ⋈_x̄ IM: joined rows carry R′'s attributes first, then the
			// table's; the consequent column sits right after the
			// antecedent columns.
			j, err := ra.Join(cur, tab.Relation(), "Rj", ra.Inner, conds)
			if err != nil {
				return nil, nil, fmt.Errorf("derive: table join: %w", err)
			}
			consPos := extSch.Arity() + len(tab.From())
			for _, jt := range j.Tuples() {
				k, ok := keyOf(jt[:extSch.Arity()])
				if !ok {
					continue
				}
				i, found := index[k]
				if !found {
					continue
				}
				derived := jt[consPos]
				curVal := work[i][yPos]
				if curVal.IsNull() {
					work[i][yPos] = derived
					changed = true
					continue
				}
				if !value.Equal(curVal, derived) && opts.Mode == Fixpoint {
					ck := fmt.Sprintf("%d\x1f%s\x1f%s\x1f%s", i, tab.To(), curVal.Key(), derived.Key())
					if !seenConflict[ck] {
						seenConflict[ck] = true
						conflicts = append(conflicts, Conflict{
							TupleIndex: i, Attr: tab.To(), Old: curVal, New: derived,
						})
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	out := relation.New(extSch)
	for _, t := range work {
		if err := out.Insert(t); err != nil {
			return nil, nil, fmt.Errorf("derive: %w", err)
		}
	}
	return out, conflicts, nil
}
