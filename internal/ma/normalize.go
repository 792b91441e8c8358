package ma

import "topocon/internal/graph"

// Normalize applies cheap algebraic identity rewrites to an adversary
// expression tree, so behaviourally-equal spellings hash — and therefore
// cache — identically (Fingerprint normalizes before hashing):
//
//   - Intersect(a, Unrestricted) → a (either operand side)
//   - Concat(a, 0, b) → b (a zero-round prefix constrains nothing)
//
// Rewrites apply recursively; combinators whose operands rewrite are
// rebuilt. Adversaries the rewriter does not recognize pass through
// unchanged, so Normalize is total and never alters behaviour.
func Normalize(a Adversary) Adversary {
	switch x := a.(type) {
	case *Intersect:
		na, nb := Normalize(x.a), Normalize(x.b)
		if IsUnrestricted(nb) {
			return na
		}
		if IsUnrestricted(na) {
			return nb
		}
		if na == x.a && nb == x.b {
			return x
		}
		if r, err := NewIntersect(x.name, na, nb); err == nil {
			return r
		}
		return x
	case *Concat:
		if x.k == 0 {
			return Normalize(x.b)
		}
		na, nb := Normalize(x.a), Normalize(x.b)
		if na == x.a && nb == x.b {
			return x
		}
		if r, err := NewConcat(x.name, na, x.k, nb); err == nil {
			return r
		}
		return x
	}
	return a
}

// IsUnrestricted reports whether a is an oblivious adversary over every
// graph on its node set — the unit of Intersect.
func IsUnrestricted(a Adversary) bool {
	o, ok := a.(*Oblivious)
	return ok && uint64(len(o.graphs)) == graph.CountAll(o.n)
}
