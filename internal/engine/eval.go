package engine

import (
	"fmt"

	"rdfviews/internal/cq"
	"rdfviews/internal/store"
)

// EvalQuery evaluates a conjunctive query over the triple store by compiling
// it to a physical plan (planner.go) and draining the batch operator pipeline
// (vec.go). Results are distinct head tuples — the contract EvalQueryINL,
// its test oracle, also meets.
func EvalQuery(st store.Reader, q *cq.Query) (*Relation, error) {
	p, err := PlanQuery(st, q)
	if err != nil {
		return nil, err
	}
	return p.Eval()
}

// EvalUCQ evaluates a union of conjunctive queries with set semantics: the
// distinct union of the members' answers, aligned positionally on the head.
func EvalUCQ(st store.Reader, u *cq.UCQ) (*Relation, error) {
	if u.Len() == 0 {
		return nil, fmt.Errorf("engine: empty union")
	}
	arity := len(u.Queries[0].Head)
	out := NewRelation(u.Queries[0].Head)
	seen := newRowSet(64)
	for _, q := range u.Queries {
		if len(q.Head) != arity {
			return nil, fmt.Errorf("engine: union arity mismatch: %d vs %d", len(q.Head), arity)
		}
		r, err := EvalQuery(st, q)
		if err != nil {
			return nil, err
		}
		for _, row := range r.Rows {
			if seen.add(row) {
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out, nil
}

// CountQuery returns the number of distinct answers of q on the store.
func CountQuery(st store.Reader, q *cq.Query) (int, error) {
	r, err := EvalQuery(st, q)
	if err != nil {
		return 0, err
	}
	return r.Len(), nil
}

// CountUCQ returns the number of distinct answers of the union on the store.
func CountUCQ(st store.Reader, u *cq.UCQ) (int, error) {
	r, err := EvalUCQ(st, u)
	if err != nil {
		return 0, err
	}
	return r.Len(), nil
}

// Materialize evaluates the view (a conjunctive query) and returns its
// extension as a relation labeled by the view's head.
func Materialize(st store.Reader, view *cq.Query) (*Relation, error) {
	return EvalQuery(st, view)
}

// MaterializeUCQ materializes a union view: the reformulated views v′ of
// post-reformulation (Section 4.3) are unions of conjunctive queries whose
// distinct answers on the non-saturated store equal the original view's
// answers on the saturated one (Theorem 4.2).
func MaterializeUCQ(st store.Reader, view *cq.UCQ) (*Relation, error) {
	return EvalUCQ(st, view)
}
