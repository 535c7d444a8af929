package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/store"
)

// drainStream collects a stream into a relation (copying each slab, since
// slabs are only valid until the next pull), failing the test on error.
func drainStream(t *testing.T, label string, s *RowStream) *Relation {
	t.Helper()
	defer s.Close()
	out := NewRelation(s.Cols())
	for {
		rows, err := s.Next()
		if err != nil {
			t.Fatalf("%s: stream: %v", label, err)
		}
		if rows == nil {
			return out
		}
		if len(rows) == 0 {
			t.Fatalf("%s: stream delivered an empty slab", label)
		}
		for _, r := range rows {
			out.Rows = append(out.Rows, append(Row(nil), r...))
		}
	}
}

// TestEvalStreamMatchesEval checks the streaming store-side drain against the
// materializing one on the standard nine shapes over flat and 4-shard stores:
// same multiset, distinct or not, serial or exchange-parallel.
func TestEvalStreamMatchesEval(t *testing.T) {
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
			want, err := plan.Eval()
			if err != nil {
				t.Fatalf("%s/%s: eval: %v", layout, name, err)
			}
			got := drainStream(t, layout+"/"+name, plan.EvalStream(ExecOptions{Ctx: context.Background()}))
			sameRows(t, layout+"/"+name+" streamed", want, got)
		}
	}
}

// TestExecuteStreamMatchesExecute checks the streaming rewriting drain against
// the materializing executor on the plan-shape matrix, serial and parallel.
func TestExecuteStreamMatchesExecute(t *testing.T) {
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
		"join-cond":     algebra.NewJoin(s1(), s4(), algebra.Cond{Left: x2, Right: x3}),
		"deep-join":     algebra.NewJoin(algebra.NewJoin(s1(), s2()), s4()),
		"filter-join":   algebra.NewJoin(algebra.NewSelect(s1(), algebra.Cond{Left: x1, Right: cq.Const(c)}), s2()),
		"project":       algebra.NewProject(algebra.NewSelect(s1(), algebra.Cond{Left: x1, Right: x2}), []cq.Term{x2}),
		"union":         algebra.NewUnion(s1(), s3()),
		"project-union": algebra.NewProject(algebra.NewUnion(algebra.NewJoin(s1(), s2()), algebra.NewJoin(s3(), s2())), []cq.Term{x1, x3}),
	}
	for name, plan := range plans {
		for _, dop := range []int{1, 4} {
			label := fmt.Sprintf("%s dop=%d", name, dop)
			want, err := ExecuteWithOptions(plan, MapResolver(views), ExecOptions{DOP: dop})
			if err != nil {
				t.Fatalf("%s: execute: %v", label, err)
			}
			s, err := ExecuteStream(plan, MapResolver(views), ExecOptions{DOP: dop, Ctx: context.Background()})
			if err != nil {
				t.Fatalf("%s: stream compile: %v", label, err)
			}
			sameRows(t, label+" streamed", want, drainStream(t, label, s))
		}
	}
}

// TestUnionProjectStreams covers the serving tier's stream combinators:
// cross-member dedup in UnionStreams and column permutation in ProjectStream.
func TestUnionProjectStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x1, x2 := cq.Var(1), cq.Var(2)
	views := map[algebra.ViewID]*Relation{
		1: randomExtent(rng, []cq.Term{x1, x2}, 600, 60),
		2: randomExtent(rng, []cq.Term{x1, x2}, 600, 60),
	}
	scan := func(id algebra.ViewID) algebra.Plan {
		return algebra.NewProject(algebra.NewScan(id, []cq.Term{x1, x2}), []cq.Term{x1, x2})
	}
	want, err := Execute(algebra.NewUnion(scan(1), scan(2)), MapResolver(views))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id algebra.ViewID) *RowStream {
		s, err := ExecuteStream(scan(id), MapResolver(views), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	u, err := UnionStreams([]*RowStream{mk(1), mk(2)}, 64)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "union streams", want, drainStream(t, "union", u))

	// Permuting an already-distinct stream preserves the row count and moves
	// the columns.
	p, err := ProjectStream(mk(1), []cq.Term{x2, x1})
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, "project", p)
	wantPerm, err := views[1].Project([]cq.Term{x2, x1})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "project stream", wantPerm, got)

	if _, err := ProjectStream(mk(1), []cq.Term{cq.Var(9)}); err == nil {
		t.Fatal("projection onto an unknown column should fail")
	}
}

// TestExecCancelContext checks that a canceled context aborts every drain —
// materializing and streaming, store-side and rewriting — with ctx.Err(), and
// that the engine's cancellation checkpoints register the stop.
func TestExecCancelContext(t *testing.T) {
	flat, _, _ := diffStores(t)
	p := cq.NewParser(flat.Dict())
	q := p.MustParseQuery("q(X, P, Y) :- t(X, P, Y)")
	plan, err := PlanQuery(flat, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before execution starts

	before := CancelStops()
	if _, err := plan.EvalWithOptions(ExecOptions{Ctx: ctx}); err != context.Canceled {
		t.Fatalf("eval under canceled ctx: got %v, want context.Canceled", err)
	}
	if CancelStops() <= before {
		t.Fatal("cancellation checkpoints did not register the stop")
	}

	rng := rand.New(rand.NewSource(3))
	x1, x2 := cq.Var(1), cq.Var(2)
	views := map[algebra.ViewID]*Relation{1: randomExtent(rng, []cq.Term{x1, x2}, 5000, 100)}
	rp := algebra.NewProject(algebra.NewScan(1, []cq.Term{x1, x2}), []cq.Term{x1, x2})
	if _, err := ExecuteWithOptions(rp, MapResolver(views), ExecOptions{Ctx: ctx}); err != context.Canceled {
		t.Fatalf("rewriting execute under canceled ctx: got %v, want context.Canceled", err)
	}

	// Mid-stream cancellation: pull one slab, cancel, and the stream must
	// terminate with the context error instead of running to completion.
	ctx2, cancel2 := context.WithCancel(context.Background())
	s := plan.EvalStream(ExecOptions{Ctx: ctx2})
	if _, err := s.Next(); err != nil {
		t.Fatalf("first slab: %v", err)
	}
	cancel2()
	for {
		rows, err := s.Next()
		if err == context.Canceled {
			break
		}
		if rows == nil {
			t.Fatal("stream hit EOF without surfacing the canceled context")
		}
	}
	s.Close()
}
