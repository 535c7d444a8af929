package engine

import (
	"fmt"
	"runtime"
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

// Batch-protocol benchmarks. Each one first checks the plan's answer
// against an independent oracle — EvalQueryINL for store queries,
// naiveExecute for rewritings — and then times the batch executor. Results
// are recorded in BENCH_engine.json / BENCH_shards.json / BENCH_rewrite.json.

// benchBatch checks the plan against the INL oracle, then times it.
func benchBatch(b *testing.B, st *store.Store, q *cq.Query) {
	b.Helper()
	plan, err := PlanQuery(st, q)
	if err != nil {
		b.Fatal(err)
	}
	want, err := EvalQueryINL(st, q)
	if err != nil {
		b.Fatal(err)
	}
	got, err := plan.Eval()
	if err != nil {
		b.Fatal(err)
	}
	sameAnswers(b, q.String(), want, got)
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Eval(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVecFullScan: the serial full scan — pure cursor decode + bind,
// where batched decode amortizes the most per-row overhead.
func BenchmarkVecFullScan(b *testing.B) {
	st, p := benchData(b)
	benchBatch(b, st, p.MustParseQuery("q(X, P, Y) :- t(X, P, Y)"))
}

// BenchmarkVecChain4: the planner-benchmark chain of four atoms (sort-merge
// plan: scan → merge → sort → merge → sort → merge), batch protocol across
// every operator kind.
func BenchmarkVecChain4(b *testing.B) {
	st, q := benchPlannerChain(b)
	benchBatch(b, st, q)
}

// BenchmarkVecSkewedHashJoin: a value join over hub-skewed data (500 edges
// per side over 20 shared hubs, ~12k output rows). The extra p2 atom keeps
// the pipeline sorted on X, so the planner hash-joins the final skewed atom:
// long collision chains make the batched probe and chain emission the
// dominant cost.
func BenchmarkVecSkewedHashJoin(b *testing.B) {
	st := store.New()
	d := st.Dict()
	p0, p1, p2 := d.EncodeIRI("p0"), d.EncodeIRI("p1"), d.EncodeIRI("p2")
	hub := func(i int) dict.ID { return d.EncodeIRI(fmt.Sprintf("hub%d", i)) }
	for i := 0; i < 500; i++ {
		a := d.EncodeIRI(fmt.Sprintf("a%d", i))
		st.Add(store.Triple{a, p0, hub(i % 20)})
		st.Add(store.Triple{d.EncodeIRI(fmt.Sprintf("b%d", i)), p1, hub(i % 20)})
		st.Add(store.Triple{a, p2, d.EncodeIRI(fmt.Sprintf("c%d", i))})
	}
	st.Count(store.Pattern{})
	q := cq.NewParser(d).MustParseQuery("q(X, Z, D) :- t(X, p0, Y), t(X, p2, D), t(Z, p1, Y)")
	benchBatch(b, st, q)
}

// BenchmarkVecShardFullScan: the 4-shard full scan through the exchange,
// whose workers forward pooled column batches.
func BenchmarkVecShardFullScan(b *testing.B) {
	oldMin := parallelScanMinRows
	parallelScanMinRows = 0
	defer func() { parallelScanMinRows = oldMin }()
	st, p := benchShardedData(b, 4)
	benchBatch(b, st, p.MustParseQuery("q(X, P, Y) :- t(X, P, Y)"))
}

// BenchmarkVecRewriteUnion: the rewriting executor's 4-branch union of hash
// joins over view extents, serial, checked against the naive interpreter.
func BenchmarkVecRewriteUnion(b *testing.B) {
	views, union := rewriteBenchFixture(b)
	resolve := MapResolver(views)
	want, err := naiveExecute(union, views)
	if err != nil {
		b.Fatal(err)
	}
	got, err := Execute(union, resolve)
	if err != nil {
		b.Fatal(err)
	}
	sameAnswers(b, "rewrite union", want, got)
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Execute(union, resolve); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMulticoreScaling is the env-gated multicore target: it re-records
// the DOP/shard scaling numbers that single-core containers cannot measure
// (BENCH_shards.json and BENCH_rewrite.json both carry 1-core caveats). It
// skips unless GOMAXPROCS > 1 — run it on a multicore host with e.g.
// GOMAXPROCS=4 go test ./internal/engine/ -bench MulticoreScaling.
func BenchmarkMulticoreScaling(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skipf("GOMAXPROCS=%d: multicore scaling needs >1 core (set GOMAXPROCS on a multicore host)", runtime.GOMAXPROCS(0))
	}
	oldMin := parallelScanMinRows
	parallelScanMinRows = 0
	defer func() { parallelScanMinRows = oldMin }()
	for _, k := range []int{1, 2, 4} {
		st, p := benchShardedData(b, k)
		q := p.MustParseQuery("q(X, P, Y) :- t(X, P, Y)")
		plan, err := PlanQuery(st, q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("scan/shards=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.Eval(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	views, union := rewriteBenchFixture(b)
	resolve := MapResolver(views)
	for _, dop := range []int{1, 2, 4} {
		opts := ExecOptions{DOP: dop}
		b.Run(fmt.Sprintf("rewrite/dop=%d", dop), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ExecuteWithOptions(union, resolve, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
