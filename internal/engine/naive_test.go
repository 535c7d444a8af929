package engine

import (
	"fmt"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// naiveExecute is the test oracle for the rewriting executor: a literal
// reading of the plan algebra over materialized extents, one node at a time,
// with nested loops and Go maps only — no batches, no cost model, no hash
// tables or dedup sets shared with the engine. Scans, selections and joins
// keep their inputs' multiplicities; projections and unions return distinct
// rows, the contract Execute documents. The column layout follows Execute's:
// a scan exposes every relabeled position (repeated labels included), a join
// its left columns then the right columns whose variable labels the left
// side lacks, a union its first branch's labels.
func naiveExecute(p algebra.Plan, views map[algebra.ViewID]*Relation) (*Relation, error) {
	switch n := p.(type) {
	case *algebra.Scan:
		ext, ok := views[n.View]
		if !ok {
			return nil, fmt.Errorf("naive: no extent for v%d", int(n.View))
		}
		if len(n.Cols) != ext.Arity() {
			return nil, fmt.Errorf("naive: scan of v%d labels %d of %d columns", int(n.View), len(n.Cols), ext.Arity())
		}
		out := &Relation{Cols: n.Cols}
		for _, row := range ext.Rows {
			// A label repeated within the scan is an equality filter.
			keep := true
			for i := range n.Cols {
				for j := i + 1; j < len(n.Cols); j++ {
					if n.Cols[i] == n.Cols[j] && row[i] != row[j] {
						keep = false
					}
				}
			}
			if keep {
				out.Rows = append(out.Rows, row)
			}
		}
		return out, nil

	case *algebra.Select:
		in, err := naiveExecute(n.Input, views)
		if err != nil {
			return nil, err
		}
		out := &Relation{Cols: in.Cols}
		for _, row := range in.Rows {
			keep := true
			for _, c := range n.Conds {
				l, err := naiveColumn(in.Cols, row, c.Left)
				if err != nil {
					return nil, err
				}
				var r dict.ID
				if c.Right.IsConst() {
					r = c.Right.ConstID()
				} else if r, err = naiveColumn(in.Cols, row, c.Right); err != nil {
					return nil, err
				}
				keep = keep && l == r
			}
			if keep {
				out.Rows = append(out.Rows, row)
			}
		}
		return out, nil

	case *algebra.Project:
		in, err := naiveExecute(n.Input, views)
		if err != nil {
			return nil, err
		}
		out := &Relation{Cols: n.Cols}
		seen := make(map[string]bool)
		for _, row := range in.Rows {
			nr := make(Row, len(n.Cols))
			for i, c := range n.Cols {
				if c.IsConst() {
					nr[i] = c.ConstID()
				} else if nr[i], err = naiveColumn(in.Cols, row, c); err != nil {
					return nil, err
				}
			}
			if k := fmt.Sprint(nr); !seen[k] {
				seen[k] = true
				out.Rows = append(out.Rows, nr)
			}
		}
		return out, nil

	case *algebra.Join:
		l, err := naiveExecute(n.Left, views)
		if err != nil {
			return nil, err
		}
		r, err := naiveExecute(n.Right, views)
		if err != nil {
			return nil, err
		}
		// Equated column pairs: every left/right pair sharing a variable
		// label (the natural join), then the explicit conditions.
		var eq [][2]int
		for i, c := range l.Cols {
			for j, d := range r.Cols {
				if c.IsVar() && c == d {
					eq = append(eq, [2]int{i, j})
				}
			}
		}
		for _, c := range n.Conds {
			i, j := naiveIndex(l.Cols, c.Left), naiveIndex(r.Cols, c.Right)
			if i < 0 || j < 0 {
				return nil, fmt.Errorf("naive: join condition %v over %v ⋈ %v", c, l.Cols, r.Cols)
			}
			eq = append(eq, [2]int{i, j})
		}
		cols := append([]cq.Term(nil), l.Cols...)
		var keep []int
		for j, d := range r.Cols {
			if d.IsVar() && naiveIndex(l.Cols, d) >= 0 {
				continue
			}
			keep = append(keep, j)
			cols = append(cols, d)
		}
		out := &Relation{Cols: cols}
		for _, lr := range l.Rows {
			for _, rr := range r.Rows {
				match := true
				for _, e := range eq {
					match = match && lr[e[0]] == rr[e[1]]
				}
				if !match {
					continue
				}
				row := append(make(Row, 0, len(cols)), lr...)
				for _, j := range keep {
					row = append(row, rr[j])
				}
				out.Rows = append(out.Rows, row)
			}
		}
		return out, nil

	case *algebra.Union:
		if len(n.Branches) == 0 {
			return nil, fmt.Errorf("naive: empty union")
		}
		var out *Relation
		seen := make(map[string]bool)
		for _, b := range n.Branches {
			in, err := naiveExecute(b, views)
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = &Relation{Cols: in.Cols}
			} else if in.Arity() != out.Arity() {
				return nil, fmt.Errorf("naive: union arity %d vs %d", in.Arity(), out.Arity())
			}
			for _, row := range in.Rows {
				if k := fmt.Sprint(row); !seen[k] {
					seen[k] = true
					out.Rows = append(out.Rows, row)
				}
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("naive: unknown plan node %T", p)
}

// naiveIndex returns the position of the first column labeled t, or -1.
func naiveIndex(cols []cq.Term, t cq.Term) int {
	for i, c := range cols {
		if c == t {
			return i
		}
	}
	return -1
}

// naiveColumn reads the row's value in the first column labeled t.
func naiveColumn(cols []cq.Term, row Row, t cq.Term) (dict.ID, error) {
	i := naiveIndex(cols, t)
	if i < 0 {
		return 0, fmt.Errorf("naive: column %v not in %v", t, cols)
	}
	return row[i], nil
}

// sameAnswers asserts got holds exactly want's rows with the same
// multiplicities, order-insensitive, after aligning got's columns to want's
// by label (the k-th column labeled c in want reads the k-th column labeled c
// in got).
func sameAnswers(t testing.TB, label string, want, got *Relation) {
	t.Helper()
	if want.Arity() != got.Arity() {
		t.Fatalf("%s: oracle columns %v, got %v", label, want.Cols, got.Cols)
	}
	perm := make([]int, len(want.Cols))
	used := make([]bool, len(got.Cols))
	for i, c := range want.Cols {
		perm[i] = -1
		for j, d := range got.Cols {
			if d == c && !used[j] {
				perm[i], used[j] = j, true
				break
			}
		}
		if perm[i] < 0 {
			t.Fatalf("%s: oracle column %v missing from %v", label, c, got.Cols)
		}
	}
	aligned := &Relation{Cols: want.Cols, Rows: make([]Row, len(got.Rows))}
	for r, row := range got.Rows {
		nr := make(Row, len(perm))
		for i, j := range perm {
			nr[i] = row[j]
		}
		aligned.Rows[r] = nr
	}
	sameRows(t, label, want, aligned)
}
