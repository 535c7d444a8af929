package engine

import (
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

// EvalQueryINL is a recursive index-nested-loop evaluator: atoms are
// ordered greedily (most selective first, preferring atoms bound to
// already-placed variables) and each atom is resolved through
// store.Reader.Scan under the current partial binding held in a map. Results
// are the distinct head tuples, like EvalQuery's.
//
// Query answering uses the planned batch pipeline (planner.go, vec.go);
// EvalQueryINL is the oracle the differential tests compare it against — it
// shares only the greedy atom order with the planner, none of its operators,
// register layouts or cursors — and the baseline of the benchmarks in
// bench_test.go. It reads through store.Reader, so the oracle can replay
// against a pinned snapshot as well as a quiesced live store.
func EvalQueryINL(st store.Reader, q *cq.Query) (*Relation, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	order, _ := orderAtoms(q, storeCards{st})
	out := NewRelation(q.Head)
	seen := newRowSet(16)
	bind := make(map[cq.Term]dict.ID)

	var rec func(k int)
	rec = func(k int) {
		if k == len(order) {
			row := make(Row, len(q.Head))
			for i, h := range q.Head {
				if h.IsConst() {
					row[i] = h.ConstID()
				} else {
					row[i] = bind[h]
				}
			}
			if seen.add(row) {
				out.Rows = append(out.Rows, row)
			}
			return
		}
		a := q.Atoms[order[k]]
		var pat store.Pattern
		for p := 0; p < 3; p++ {
			switch {
			case a[p].IsConst():
				pat[p] = a[p].ConstID()
			default:
				if v, ok := bind[a[p]]; ok {
					pat[p] = v
				} else {
					pat[p] = store.Wildcard
				}
			}
		}
		st.Scan(pat, func(t store.Triple) bool {
			var added []cq.Term
			ok := true
			for p := 0; p < 3 && ok; p++ {
				term := a[p]
				if term.IsConst() {
					continue
				}
				if v, bound := bind[term]; bound {
					if v != t[p] {
						ok = false
					}
					continue
				}
				bind[term] = t[p]
				added = append(added, term)
			}
			if ok {
				rec(k + 1)
			}
			for _, v := range added {
				delete(bind, v)
			}
			return true
		})
	}
	rec(0)
	return out, nil
}
