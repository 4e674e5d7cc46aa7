package expr

import "sheetmusiq/internal/relation"

// Join conditions. ⋈ and SQL's JOIN … ON both join through JoinOn: the
// condition's top-level AND-ed equalities between a column of each side
// become the equi-hash-join kernel's keys (relation.HashJoin), and whatever
// of the condition the keys do not cover filters the candidate pairs as a
// batch program (Select). A condition without such an equality filters the
// product block by block (relation.Join). Keys and filter resolve names
// through one resolver, so a name means the same column in both.

// JoinOn joins left and right on the condition on (nil = the product), in
// product order and product layout: left's columns, then right's. resolve
// maps a name to its position in that layout; a name it leaves unresolved
// is no key, and errs, as Eval's unknown column does, on the pairs the
// filter reads. An error is the interpreter's exact error for the first
// failing pair the filter reads.
func JoinOn(left, right *relation.Relation, on Expr, resolve Resolver) (*relation.Relation, error) {
	lk, rk, keysOnly := equiKeys(on, resolve, len(left.Schema))
	var filter relation.PairFilter
	if !keysOnly {
		filter = func(cand *relation.Relation) ([]int32, error) {
			cols := cand.Columns()
			bp, err := CompileBatch(on, func(name string) (*relation.Col, bool) {
				if i, ok := resolve(name); ok {
					return cols[i], true
				}
				return nil, false
			})
			if err != nil {
				return nil, err
			}
			return bp.Select(nil, cand.Len())
		}
	}
	if len(lk) > 0 {
		return left.HashJoin(right, lk, rk, filter)
	}
	return left.Join(right, filter)
}

// equiKeys extracts the join keys of on: its top-level AND-ed conjuncts
// `a = b` whose column references resolve on opposite sides of split, as
// left positions lk and right positions rk (relative to the right side),
// in either orientation. A condition that holds implies every key pair
// compares equal, which is what lets the hash kernel prune the pairs whose
// keys differ. keysOnly reports that the keys are every conjunct (a nil
// condition has none), so the kernel's key match is the whole condition.
func equiKeys(on Expr, resolve Resolver, split int) (lk, rk []int, keysOnly bool) {
	keysOnly = true
	var visit func(Expr)
	visit = func(n Expr) {
		if b, ok := n.(*Binary); ok && b.Op == OpAnd {
			visit(b.L)
			visit(b.R)
			return
		}
		li, ri, ok := equiKey(n, resolve)
		switch {
		case ok && li < split && ri >= split:
			lk, rk = append(lk, li), append(rk, ri-split)
		case ok && ri < split && li >= split:
			lk, rk = append(lk, ri), append(rk, li-split)
		default:
			keysOnly = false
		}
	}
	if on != nil {
		visit(on)
	}
	return lk, rk, keysOnly
}

// equiKey resolves an `a = b` column equality to its two positions.
func equiKey(n Expr, resolve Resolver) (li, ri int, ok bool) {
	b, isBin := n.(*Binary)
	if !isBin || b.Op != OpEq {
		return 0, 0, false
	}
	lc, lok := b.L.(*ColumnRef)
	rc, rok := b.R.(*ColumnRef)
	if !lok || !rok {
		return 0, 0, false
	}
	li, lok = resolve(lc.Name)
	ri, rok = resolve(rc.Name)
	return li, ri, lok && rok
}
