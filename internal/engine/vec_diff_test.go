package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/store"
)

// Oracle differentials: the batch executors must reproduce an independent
// evaluator's exact row multiset on every shape, store layout and DOP. Store
// queries are checked against EvalQueryINL (store.Reader.Scan under a map
// binding, none of the planner's operators or cursors); rewritings against
// naiveExecute (nested loops over the extents, no engine operators).

// diffStores builds the flat, 4-shard and 4×4 dual-partitioned variants of
// the standard 20k-triple dataset, with a few self-loop edges added so the
// repeated-variable shape has matches.
func diffStores(t *testing.T) (flat, sharded, dual *store.Store) {
	t.Helper()
	flat, _ = datagen.Generate(datagen.Config{Triples: 20000, Seed: 3})
	d := flat.Dict()
	p0 := d.EncodeIRI(datagen.PropName(0))
	for i := 0; i < 50; i++ {
		n := d.EncodeIRI(fmt.Sprintf("self%d", i))
		flat.Add(store.Triple{n, p0, n})
	}
	flat.Count(store.Pattern{})
	sharded = store.NewWithDictSharded(d, 4)
	sharded.AddBatch(flat.Triples())
	sharded.Count(store.Pattern{})
	dual = store.NewWithDictDual(d, 4, 4)
	dual.AddBatch(flat.Triples())
	dual.Count(store.Pattern{})
	return flat, sharded, dual
}

// TestVectorizedEvalMatchesRows is the store-side matrix: nine query shapes
// (scans, chains, stars, a five-atom mix, a value join, a self-loop) over the
// flat, 4-shard and 4×4 dual-partitioned stores, batch pipeline vs the INL
// oracle, multiset-exact with columns aligned by label. The parallel-scan
// threshold is dropped so the sharded runs exercise the exchange and
// ordered-gather operators, over both partition sides on the dual layout.
func TestVectorizedEvalMatchesRows(t *testing.T) {
	oldMin := parallelScanMinRows
	parallelScanMinRows = 0
	defer func() { parallelScanMinRows = oldMin }()

	shapes := map[string]string{
		"full-scan":  "q(X, P, Y) :- t(X, P, Y)",
		"pred-scan":  "q(X, Y) :- t(X, " + datagen.PropName(0) + ", Y)",
		"chain3":     benchQueries["Chain3"],
		"chain4":     benchQueries["Chain4"],
		"star3":      benchQueries["Star3"],
		"star4":      benchQueries["Star4"],
		"multijoin5": benchQueries["MultiJoin5"],
		"valuejoin":  benchQueries["ValueJoin"],
		"self-loop":  "q(X) :- t(X, " + datagen.PropName(0) + ", X)",
	}
	flat, sharded, dual := diffStores(t)
	for layout, st := range map[string]*store.Store{"flat": flat, "4-shard": sharded, "4x4-dual": dual} {
		p := cq.NewParser(st.Dict())
		for name, src := range shapes {
			q := p.MustParseQuery(src)
			p.ResetNames()
			plan, err := PlanQuery(st, q)
			if err != nil {
				t.Fatalf("%s/%s: plan: %v", layout, name, err)
			}
			want, err := EvalQueryINL(st, q)
			if err != nil {
				t.Fatalf("%s/%s: INL oracle: %v", layout, name, err)
			}
			got, err := plan.Eval()
			if err != nil {
				t.Fatalf("%s/%s: batch pipeline: %v", layout, name, err)
			}
			if name == "self-loop" && want.Len() == 0 {
				t.Fatalf("%s/self-loop: fixture lost its self edges", layout)
			}
			sameAnswers(t, layout+"/"+name, want, got)
		}
	}
}

// TestVectorizedExecuteMatchesRows is the rewriting-executor matrix: the same
// nine plan shapes as the serial-vs-parallel differential, batch executor at
// DOP 1, 2 and 4 vs the naive plan interpreter, multiset-exact with columns
// aligned by label.
func TestVectorizedExecuteMatchesRows(t *testing.T) {
	forceParallelRewrite(t)
	rng := rand.New(rand.NewSource(19))
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
	c := views[1].Rows[0][0]

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
		want, err := naiveExecute(plan, views)
		if err != nil {
			t.Fatalf("%s: naive oracle: %v", name, err)
		}
		if want.Len() == 0 {
			t.Fatalf("%s: oracle answer is empty; fixture proves nothing", name)
		}
		for _, dop := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s dop=%d", name, dop)
			got, err := ExecuteWithOptions(plan, MapResolver(views), ExecOptions{DOP: dop})
			if err != nil {
				t.Fatalf("%s: batch executor: %v", label, err)
			}
			sameAnswers(t, label, want, got)
		}
	}
}

// TestVectorizedAbandonedPipeline closes partially drained and never-started
// pipelines — serial and parallel, both executors — and checks every worker
// is released (the race detector and goroutine scheduler catch leaks).
func TestVectorizedAbandonedPipeline(t *testing.T) {
	forceParallelRewrite(t)
	rng := rand.New(rand.NewSource(23))
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
	if _, ok := root.nextBatch(); !ok {
		t.Fatal("no first batch")
	}
	closeVop(root)
	closeVop(root) // closing twice is safe

	// Store-side: abandon a sharded vectorized scan mid-stream.
	oldMin := parallelScanMinRows
	parallelScanMinRows = 0
	defer func() { parallelScanMinRows = oldMin }()
	_, sharded, _ := diffStores(t)
	q := cq.NewParser(sharded.Dict()).MustParseQuery("q(X, P, Y) :- t(X, P, Y)")
	qp, err := PlanQuery(sharded, q)
	if err != nil {
		t.Fatal(err)
	}
	vroot := qp.buildVecOps(nil)
	if _, ok := vroot.nextBatch(); !ok {
		t.Fatal("no first batch from sharded scan")
	}
	closeVop(vroot)
	closeVop(vroot)
	closeVop(qp.buildVecOps(nil))
}
