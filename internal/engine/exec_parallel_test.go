package engine

import (
	"math/rand"
	"strings"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// forceParallelRewrite lowers the parallel-operator threshold for the
// duration of a test so small fixtures still exercise the parallel executor.
func forceParallelRewrite(t testing.TB) {
	t.Helper()
	old := parallelRewriteMinRows
	parallelRewriteMinRows = 0
	t.Cleanup(func() { parallelRewriteMinRows = old })
}

// randomExtent builds an n-row extent with values drawn from a bounded
// domain, so joins match and unions overlap.
func randomExtent(rng *rand.Rand, cols []cq.Term, n, domain int) *Relation {
	r := NewRelation(cols)
	for i := 0; i < n; i++ {
		row := make(Row, len(cols))
		for j := range row {
			row[j] = dict.ID(rng.Intn(domain) + 1)
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// sameRows asserts two relations hold exactly the same rows with the same
// multiplicities (order-insensitive) — stronger than EqualAsSet, because an
// executor must reproduce its oracle's multiset, not just its distinct rows.
func sameRows(t testing.TB, label string, want, got *Relation) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: want %d rows, got %d rows", label, want.Len(), got.Len())
	}
	a := &Relation{Cols: want.Cols, Rows: append([]Row(nil), want.Rows...)}
	b := &Relation{Cols: got.Cols, Rows: append([]Row(nil), got.Rows...)}
	a.SortRows()
	b.SortRows()
	for i := range a.Rows {
		if !rowsEqual(a.Rows[i], b.Rows[i]) {
			t.Fatalf("%s: row %d differs: want %v, got %v", label, i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestParallelExecuteMatchesSerial is the serial-vs-parallel differential:
// every plan shape the rewriting executor parallelizes (partitioned hash
// joins over split and unsplittable probes, concurrent union branches,
// exchanged filter scans under projections) must produce exactly the serial
// row multiset at every DOP.
func TestParallelExecuteMatchesSerial(t *testing.T) {
	forceParallelRewrite(t)
	rng := rand.New(rand.NewSource(7))
	x1, x2, x3, x4 := cq.Var(1), cq.Var(2), cq.Var(3), cq.Var(4)
	views := map[algebra.ViewID]*Relation{
		1: randomExtent(rng, []cq.Term{x1, x2}, 900, 140),
		2: randomExtent(rng, []cq.Term{x2, x3}, 700, 140),
		3: randomExtent(rng, []cq.Term{x1, x2}, 400, 140),
		4: randomExtent(rng, []cq.Term{x3, x4}, 500, 140),
	}
	s1 := func() *algebra.Scan { return algebra.NewScan(1, []cq.Term{x1, x2}) }
	s2 := func() *algebra.Scan { return algebra.NewScan(2, []cq.Term{x2, x3}) }
	s3 := func() *algebra.Scan { return algebra.NewScan(3, []cq.Term{x1, x2}) }
	s4 := func() *algebra.Scan { return algebra.NewScan(4, []cq.Term{x3, x4}) }
	c := views[1].Rows[0][0] // a constant that actually occurs

	plans := map[string]algebra.Plan{
		"join":          algebra.NewJoin(s1(), s2()),
		"join-flipped":  algebra.NewJoin(s2(), s1()),
		"join-cond":     algebra.NewJoin(s1(), algebra.NewScan(4, []cq.Term{x3, x4}), algebra.Cond{Left: x2, Right: x3}),
		"deep-join":     algebra.NewJoin(algebra.NewJoin(s1(), s2()), s4()),
		"filter-join":   algebra.NewJoin(algebra.NewSelect(s1(), algebra.Cond{Left: x1, Right: cq.Const(c)}), s2()),
		"project":       algebra.NewProject(algebra.NewSelect(s1(), algebra.Cond{Left: x1, Right: x2}), []cq.Term{x2}),
		"union":         algebra.NewUnion(s1(), s3()),
		"union-of-join": algebra.NewUnion(algebra.NewJoin(s1(), s2()), algebra.NewJoin(s3(), s2()), algebra.NewJoin(s1(), s2())),
		"project-union": algebra.NewProject(algebra.NewUnion(algebra.NewJoin(s1(), s2()), algebra.NewJoin(s3(), s2())), []cq.Term{x1, x3}),
	}
	for name, plan := range plans {
		serial, err := Execute(plan, MapResolver(views))
		if err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		for _, dop := range []int{2, 4, 8} {
			par, err := ExecuteWithOptions(plan, MapResolver(views), ExecOptions{DOP: dop})
			if err != nil {
				t.Fatalf("%s dop=%d: %v", name, dop, err)
			}
			sameRows(t, name, serial, par)
		}
	}
}

// TestParallelJoinEmptyProbeSkipsBuild extends the empty-probe fast path to
// the partitioned parallel join: a zero-row probe must not drain the build
// side or spawn probe workers.
func TestParallelJoinEmptyProbeSkipsBuild(t *testing.T) {
	x1, x2, x3 := cq.Var(1), cq.Var(2), cq.Var(3)
	empty := &vecRelScanOp{labels: []cq.Term{x1, x2}}
	counted := &countingRel{in: &vecRelScanOp{rows: bigExtent([]cq.Term{x2, x3}, 2000).Rows, labels: []cq.Term{x2, x3}}}
	shape, err := joinShape(empty.cols(), counted.cols(), nil)
	if err != nil {
		t.Fatal(err)
	}
	j := newVecParallelHashJoin(empty, counted, shape, []int{1}, []int{0}, false, 4, nil)
	if _, ok := j.nextBatch(); ok {
		t.Fatal("parallel join over empty probe returned a row")
	}
	if counted.calls != 0 {
		t.Fatalf("empty probe still drained the build side (%d next calls)", counted.calls)
	}
	j.close()
}

// TestParallelUnionSharedDedup pins cross-branch deduplication under
// concurrent branch evaluation: identical branches collapse to one copy of
// each row.
func TestParallelUnionSharedDedup(t *testing.T) {
	forceParallelRewrite(t)
	x1, x2 := cq.Var(1), cq.Var(2)
	ext := bigExtent([]cq.Term{x1, x2}, 500)
	views := map[algebra.ViewID]*Relation{1: ext}
	u := algebra.NewUnion(
		algebra.NewScan(1, []cq.Term{x1, x2}),
		algebra.NewScan(1, []cq.Term{x1, x2}),
		algebra.NewScan(1, []cq.Term{x1, x2}),
	)
	r, err := ExecuteWithOptions(u, MapResolver(views), ExecOptions{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != ext.Len() {
		t.Fatalf("parallel union of identical branches = %d rows, want %d", r.Len(), ext.Len())
	}
}

// TestParallelExecuteAbandonedPipeline exercises close(): compiling and
// partially draining a parallel plan, then closing it, must release every
// worker (the race detector and goroutine scheduler catch leaks/panics).
func TestParallelExecuteAbandonedPipeline(t *testing.T) {
	forceParallelRewrite(t)
	rng := rand.New(rand.NewSource(11))
	x1, x2, x3 := cq.Var(1), cq.Var(2), cq.Var(3)
	views := map[algebra.ViewID]*Relation{
		1: randomExtent(rng, []cq.Term{x1, x2}, 2000, 50),
		2: randomExtent(rng, []cq.Term{x2, x3}, 2000, 50),
	}
	plan := algebra.NewUnion(
		algebra.NewJoin(algebra.NewScan(1, []cq.Term{x1, x2}), algebra.NewScan(2, []cq.Term{x2, x3})),
		algebra.NewJoin(algebra.NewScan(1, []cq.Term{x1, x2}), algebra.NewScan(2, []cq.Term{x2, x3})),
	)
	root, _, err := compileVecRel(plan, MapResolver(views), ExecOptions{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // pull a few batches, then walk away
		if _, ok := root.nextBatch(); !ok {
			break
		}
	}
	closeVop(root)
	// Closing twice is safe, as is closing a never-started pipeline.
	closeVop(root)
	fresh, _, err := compileVecRel(plan, MapResolver(views), ExecOptions{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	closeVop(fresh)
}

// TestDescribeParallelAnnotations pins the explain surface of the parallel
// executor: at DOP > 1 eligible hash joins and unions render dop=N, and the
// join's cost-chosen build side is rendered either way.
func TestDescribeParallelAnnotations(t *testing.T) {
	forceParallelRewrite(t)
	x1, x2, x3 := cq.Var(1), cq.Var(2), cq.Var(3)
	card := func(id algebra.ViewID) float64 { return 2000 }
	u := algebra.NewUnion(
		algebra.NewJoin(algebra.NewScan(1, []cq.Term{x1, x2}), algebra.NewScan(2, []cq.Term{x2, x3})),
		algebra.NewJoin(algebra.NewScan(3, []cq.Term{x1, x2}), algebra.NewScan(2, []cq.Term{x2, x3})),
	)
	node, err := DescribePlanWithOptions(u, card, ExecOptions{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := node.String()
	if node.DOP != 2 { // two branches cap the union's parallelism
		t.Fatalf("union DOP = %d, want 2:\n%s", node.DOP, out)
	}
	for _, child := range node.Children {
		if child.DOP != 4 {
			t.Fatalf("join DOP = %d, want 4:\n%s", child.DOP, out)
		}
		if child.Build == "" {
			t.Fatalf("join missing build side:\n%s", out)
		}
	}
	if !strings.Contains(out, "dop=4") || !strings.Contains(out, "dop=2") {
		t.Fatalf("missing dop annotations:\n%s", out)
	}
	serial, err := DescribePlan(u, card)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(serial.String(), "dop=") {
		t.Fatalf("serial describe should not carry dop annotations:\n%s", serial)
	}

	// A deduplicating projection over a large filtered extent scan fans the
	// filter out through an exchange; its Filter node must say so.
	proj := algebra.NewProject(
		algebra.NewSelect(algebra.NewScan(1, []cq.Term{x1, x2}), algebra.Cond{Left: x1, Right: x2}),
		[]cq.Term{x2},
	)
	node, err = DescribePlanWithOptions(proj, card, ExecOptions{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	if node.Children[0].DOP != 4 {
		t.Fatalf("exchanged filter under projection should render dop=4:\n%s", node)
	}
}
