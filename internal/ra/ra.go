// Package ra implements the relational-algebra operators the paper's
// matching-table construction is expressed in (§4.2): selection,
// projection, renaming, natural and equi-joins, left/right/full outer
// joins, union and difference.
//
// Join equality uses matching-level value equality (value.Equal), under
// which NULL never joins with anything — the prototype's non_null_eq.
// Outer joins pad the non-matching side with NULL, which is how the
// integrated table T_RS = MT ⋈ R full-outer-join S acquires its NULL
// rows (§4.1).
//
// All operators are pure: they return fresh relations and leave their
// inputs untouched. Result schemas declare the full attribute set as key
// (operators do not in general preserve candidate keys), except where
// documented.
package ra

import (
	"fmt"

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// Predicate decides whether a tuple of the given relation satisfies a
// selection condition.
type Predicate func(r *relation.Relation, t relation.Tuple) bool

// Select returns the tuples of r satisfying p, with r's schema.
// Bag inputs produce bag outputs.
func Select(r *relation.Relation, name string, p Predicate) (*relation.Relation, error) {
	sch, err := schema.New(name, r.Schema().Attrs(), r.Schema().Keys()...)
	if err != nil {
		return nil, err
	}
	out := newLike(r, sch)
	for _, t := range r.Tuples() {
		if p(r, t) {
			if err := out.Insert(t.Clone()); err != nil {
				return nil, fmt.Errorf("ra: select: %w", err)
			}
		}
	}
	return out, nil
}

// AttrEquals is a predicate that holds when the named attribute Equals v
// (matching-level: never for NULL).
func AttrEquals(attr string, v value.Value) Predicate {
	return func(r *relation.Relation, t relation.Tuple) bool {
		i := r.Schema().Index(attr)
		return i >= 0 && value.Equal(t[i], v)
	}
}

// Project returns the projection of r onto attrs (in the given order).
// Duplicate projected tuples are collapsed to a set, the usual bag-to-set
// semantics of Π in the paper's expressions.
func Project(r *relation.Relation, name string, attrs []string) (*relation.Relation, error) {
	psch, err := r.Schema().Project(name, attrs)
	if err != nil {
		return nil, err
	}
	// Projection collapses duplicates; build a set keyed on the projected
	// tuple. The schema's default whole-tuple key would skip NULLs, so
	// dedupe explicitly and insert into a keyless relation.
	out := relation.New(psch)
	seen := map[string]bool{}
	for _, t := range r.Tuples() {
		p, err := r.Project(t, attrs)
		if err != nil {
			return nil, err
		}
		k := p.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		if err := insertUnchecked(out, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// insertUnchecked inserts via the relation's Insert, translating a key
// violation into a real error (operators pre-dedupe, so violations mean a
// bug or genuinely conflicting data worth surfacing).
func insertUnchecked(r *relation.Relation, t relation.Tuple) error {
	if err := r.Insert(t); err != nil {
		return fmt.Errorf("ra: %w", err)
	}
	return nil
}

// newLike creates a relation over sch with the same set/bag discipline
// as src.
func newLike(src *relation.Relation, sch *schema.Schema) *relation.Relation {
	if src.IsBag() {
		return relation.NewBag(sch)
	}
	return relation.New(sch)
}

// Rename returns r with its relation renamed and attributes renamed
// according to the mapping (attributes absent from the mapping keep their
// names). Candidate keys are carried over under the new names.
func Rename(r *relation.Relation, name string, mapping map[string]string) (*relation.Relation, error) {
	sch, err := r.Schema().Rename(name, mapping)
	if err != nil {
		return nil, err
	}
	out := newLike(r, sch)
	for _, t := range r.Tuples() {
		if err := insertUnchecked(out, t.Clone()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Union returns the set union of two relations with equal attribute lists
// (names and kinds, in order). Duplicates across the inputs collapse.
func Union(a, b *relation.Relation, name string) (*relation.Relation, error) {
	if err := compatible(a, b); err != nil {
		return nil, fmt.Errorf("ra: union: %w", err)
	}
	sch, err := schema.New(name, a.Schema().Attrs())
	if err != nil {
		return nil, err
	}
	out := relation.New(sch)
	seen := map[string]bool{}
	for _, src := range []*relation.Relation{a, b} {
		for _, t := range src.Tuples() {
			k := t.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			if err := insertUnchecked(out, t.Clone()); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Difference returns the tuples of a not present in b (storage-level
// identity), for union-compatible relations.
func Difference(a, b *relation.Relation, name string) (*relation.Relation, error) {
	if err := compatible(a, b); err != nil {
		return nil, fmt.Errorf("ra: difference: %w", err)
	}
	sch, err := schema.New(name, a.Schema().Attrs())
	if err != nil {
		return nil, err
	}
	drop := map[string]bool{}
	for _, t := range b.Tuples() {
		drop[t.Key()] = true
	}
	out := relation.New(sch)
	seen := map[string]bool{}
	for _, t := range a.Tuples() {
		k := t.Key()
		if drop[k] || seen[k] {
			continue
		}
		seen[k] = true
		if err := insertUnchecked(out, t.Clone()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func compatible(a, b *relation.Relation) error {
	as, bs := a.Schema(), b.Schema()
	if as.Arity() != bs.Arity() {
		return fmt.Errorf("arity mismatch %d vs %d", as.Arity(), bs.Arity())
	}
	for i := 0; i < as.Arity(); i++ {
		if as.Attr(i) != bs.Attr(i) {
			return fmt.Errorf("attribute %d mismatch: %v vs %v", i, as.Attr(i), bs.Attr(i))
		}
	}
	return nil
}
