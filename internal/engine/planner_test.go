package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/store"
)

// assertSameAnswers checks pipeline, INL, and naive evaluation agree on q.
func assertSameAnswers(t *testing.T, st *store.Store, q *cq.Query) {
	t.Helper()
	got, err := EvalQuery(st, q)
	if err != nil {
		t.Fatalf("EvalQuery(%s): %v", q, err)
	}
	inl, err := EvalQueryINL(st, q)
	if err != nil {
		t.Fatalf("EvalQueryINL(%s): %v", q, err)
	}
	if !got.EqualAsSet(inl) {
		t.Fatalf("pipeline vs INL mismatch for %s: %d vs %d rows", q, got.Len(), inl.Len())
	}
	naive := naiveEval(st, q)
	if !got.EqualAsSet(naive) {
		t.Fatalf("pipeline vs naive mismatch for %s: %d vs %d rows", q, got.Len(), naive.Len())
	}
}

func TestPlanConstantOnlyHead(t *testing.T) {
	st, p := paintersStore(t)
	tag := cq.Const(st.Dict().EncodeIRI("tag"))
	// Head is a single constant: one row when the body matches, none when not.
	q := &cq.Query{Head: []cq.Term{tag}, Atoms: p.MustParseQuery("q(X) :- t(X, hasPainted, starryNight)").Atoms}
	r, err := EvalQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Rows[0][0] != tag.ConstID() {
		t.Fatalf("constant head: got %d rows %v", r.Len(), r.Rows)
	}
	assertSameAnswers(t, st, q)

	empty := &cq.Query{Head: []cq.Term{tag}, Atoms: p.MustParseQuery("q(X) :- t(X, hasPainted, tag)").Atoms}
	r, err = EvalQuery(st, empty)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("constant head over empty match: got %d rows", r.Len())
	}
}

func TestPlanEmptyHeadBoolean(t *testing.T) {
	st, p := paintersStore(t)
	q := p.MustParseQuery("q(X) :- t(X, hasPainted, starryNight)")
	boolean := &cq.Query{Head: nil, Atoms: q.Atoms}
	r, err := EvalQuery(st, boolean)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("boolean true: got %d rows, want 1 empty row", r.Len())
	}
	no := &cq.Query{Head: nil, Atoms: p.MustParseQuery("q(X) :- t(X, hasPainted, nothingPaintedThis)").Atoms}
	r, err = EvalQuery(st, no)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("boolean false: got %d rows, want 0", r.Len())
	}
}

func TestPlanZeroMatches(t *testing.T) {
	st, p := paintersStore(t)
	for _, src := range []string{
		"q(X) :- t(X, hasPainted, guernica), t(X, hasPainted, starryNight)", // join with empty result
		"q(X, Y) :- t(X, neverUsedProp, Y)",                                 // unused property
		"q(X) :- t(X, isParentOf, X)",                                       // repeated var, no reflexive edges
	} {
		q := p.MustParseQuery(src)
		p.ResetNames()
		r, err := EvalQuery(st, q)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != 0 {
			t.Fatalf("%s: got %d rows, want 0", src, r.Len())
		}
	}
}

func TestPlanTriangleSortBreakUsesSortMerge(t *testing.T) {
	// Triangle: the third atom shares two variables with the pipeline and
	// neither is the slot the pipeline is sorted on. With the explicit Sort
	// operator the planner re-sorts the (tiny) pipeline and merge-joins on
	// one shared variable with a residual equality on the other; with
	// sort-merge disabled it falls back to the historical hash join.
	st := store.New()
	d := st.Dict()
	enc := func(s string) cq.Term { return cq.Const(d.EncodeIRI(s)) }
	p0, p1, p2 := enc("p0"), enc("p1"), enc("p2")
	add := func(s, p, o cq.Term) {
		st.Add(store.Triple{s.ConstID(), p.ConstID(), o.ConstID()})
	}
	a, b, c, x, y := enc("a"), enc("b"), enc("c"), enc("x"), enc("y")
	add(a, p0, b)
	add(b, p1, c)
	add(c, p2, a) // closes the triangle a-b-c
	add(a, p0, x)
	add(x, p1, y) // path a-x-y, not closed: y has no p2 edge
	X, Y, Z := cq.Var(1), cq.Var(2), cq.Var(3)
	q := &cq.Query{
		Head: []cq.Term{X, Y, Z},
		Atoms: []cq.Atom{
			{X, p0, Y},
			{Y, p1, Z},
			{Z, p2, X},
		},
	}
	plan, err := PlanQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain()
	sorts, merges := 0, 0
	for _, op := range plan.Describe().Operators() {
		switch op {
		case "Sort":
			sorts++
		case "MergeJoin":
			merges++
		}
	}
	if sorts == 0 || merges < 2 {
		t.Fatalf("triangle should sort-break into merge joins, got %d sorts, %d merges\n%s",
			sorts, merges, out)
	}
	if !strings.Contains(out, "residual=[") {
		t.Fatalf("two shared variables should leave a residual equality:\n%s", out)
	}
	r, err := plan.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("triangle matches = %d, want 1", r.Len())
	}
	if r.Rows[0][0] != a.ConstID() || r.Rows[0][1] != b.ConstID() || r.Rows[0][2] != c.ConstID() {
		t.Fatalf("wrong triangle: %v", r.Rows[0])
	}
	assertSameAnswers(t, st, q)

	// The hash-join path remains reachable (and correct) when sort-merge
	// planning is disabled — the benchmark baseline depends on it.
	enablePlannerDepth = false
	defer func() { enablePlannerDepth = true }()
	plan, err = PlanQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	hasHash := false
	for _, op := range plan.Describe().Operators() {
		if op == "HashJoin" {
			hasHash = true
		}
	}
	if !hasHash {
		t.Fatalf("with sort-merge disabled the triangle should hash-join:\n%s", plan.Explain())
	}
	r, err = plan.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("hash-join triangle matches = %d, want 1", r.Len())
	}
}

func TestPlanMergeJoinChosenForChain(t *testing.T) {
	st, p := paintersStore(t)
	q := p.MustParseQuery("q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)")
	plan, err := PlanQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	ops := plan.Describe().Operators()
	hasMerge := false
	for _, op := range ops {
		if op == "MergeJoin" {
			hasMerge = true
		}
	}
	if !hasMerge {
		t.Fatalf("chain should merge-join, got %v\n%s", ops, plan.Explain())
	}
	assertSameAnswers(t, st, q)
}

func TestPlanDuplicateEliminationAcrossJoinPaths(t *testing.T) {
	// u2 painted two works, u1 has two such grandchildren paths; projecting
	// away the intermediate variables must collapse the duplicates.
	st, p := paintersStore(t)
	q := p.MustParseQuery("q(X) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)")
	r, err := EvalQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	// u1 (via u2's two works) and u3 (via u4) — u5's child paints nothing.
	if r.Len() != 2 {
		t.Fatalf("distinct parents = %d, want 2", r.Len())
	}
	assertSameAnswers(t, st, q)
}

func TestPlanCartesianProduct(t *testing.T) {
	st, p := paintersStore(t)
	q := p.MustParseQuery("q(X, Y) :- t(X, hasPainted, starryNight), t(Y, hasPainted, guernica)")
	plan, err := PlanQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	ops := plan.Describe().Operators()
	hasCross := false
	for _, op := range ops {
		if op == "CrossProduct" {
			hasCross = true
		}
	}
	if !hasCross {
		t.Fatalf("disconnected query should cross-product, got %v", ops)
	}
	r, err := plan.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 { // {u1, u5} × {u3}
		t.Fatalf("rows = %d, want 2", r.Len())
	}
	assertSameAnswers(t, st, q)
}

func TestPlanExplainRendersPermutationsAndJoins(t *testing.T) {
	st, p := paintersStore(t)
	q := p.MustParseQuery("q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)")
	plan, err := PlanQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain()
	for _, want := range []string{"IndexScan", "perm=", "prefix=", "Project"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "MergeJoin") && !strings.Contains(out, "HashJoin") {
		t.Errorf("Explain shows no join operator:\n%s", out)
	}
}

func TestPlanVariablePredicates(t *testing.T) {
	st, p := paintersStore(t)
	for _, src := range []string{
		"q(X, P, Y) :- t(X, P, Y)",
		"q(X, P) :- t(X, P, Y), t(Y, P, Z)",             // shared predicate variable
		"q(X) :- t(X, P1, Y), t(X, P2, Z), t(Y, P3, W)", // star + chain mix
	} {
		q := p.MustParseQuery(src)
		p.ResetNames()
		assertSameAnswers(t, st, q)
	}
}

func TestPlanPipelineAgainstINLRandom(t *testing.T) {
	// Property: the planned streaming pipeline agrees with the legacy INL
	// evaluator on random stores and random connected queries of 1–4 atoms.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		st := store.New()
		d := st.Dict()
		for i := 0; i < 60; i++ {
			st.Add(store.Triple{
				d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(6))),
				d.EncodeIRI(fmt.Sprintf("p%d", rng.Intn(3))),
				d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(6))),
			})
		}
		p := cq.NewParser(d)
		q := randomConnectedQuery(rng, p, d, 1+rng.Intn(4))
		got, err := EvalQuery(st, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvalQueryINL(st, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsSet(want) {
			t.Fatalf("trial %d: pipeline vs INL mismatch for %s: got %d rows, want %d",
				trial, q.Format(d), got.Len(), want.Len())
		}
	}
}

func TestPlanQueryValidates(t *testing.T) {
	st, _ := paintersStore(t)
	if _, err := PlanQuery(st, &cq.Query{}); err == nil {
		t.Error("empty body should fail")
	}
	if _, err := PlanQuery(st, &cq.Query{
		Head:  []cq.Term{cq.Var(9)},
		Atoms: []cq.Atom{{cq.Var(1), cq.Var(2), cq.Var(3)}},
	}); err == nil {
		t.Error("head variable not in body should fail")
	}
}

func TestDescribePlanRendersRewriting(t *testing.T) {
	_, vars := execFixture()
	x1, x2, x3 := vars[0], vars[1], vars[2]
	plan := algebra.NewProject(
		algebra.NewJoin(
			algebra.NewScan(1, []cq.Term{x1, x2}),
			algebra.NewScan(2, []cq.Term{x2, x3}),
		),
		[]cq.Term{x1, x3},
	)
	node, err := DescribePlan(plan, func(id algebra.ViewID) float64 { return 10 * float64(id) })
	if err != nil {
		t.Fatal(err)
	}
	out := node.String()
	for _, want := range []string{"Project", "HashJoin", "ViewScan v1", "ViewScan v2", "build=right"} {
		if !strings.Contains(out, want) {
			t.Errorf("DescribePlan missing %q:\n%s", want, out)
		}
	}
	// The physical description must agree with Execute's operator choices on
	// error cases too.
	if _, err := DescribePlan(algebra.NewUnion(), nil); err == nil {
		t.Error("empty union should fail")
	}
	if _, err := DescribePlan(algebra.NewSelect(
		algebra.NewScan(1, []cq.Term{x1}), algebra.Cond{Left: cq.Var(99), Right: cq.Const(1)}), nil); err == nil {
		t.Error("bad selection column should fail")
	}
}
