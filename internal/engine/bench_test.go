package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

func benchData(b *testing.B) (*store.Store, *cq.Parser) {
	b.Helper()
	st, _ := datagen.Generate(datagen.Config{Triples: 20000, Seed: 1})
	st.Count(store.Pattern{})
	return st, cq.NewParser(st.Dict())
}

// benchQueries are the join-heavy shapes of the old-vs-new comparison:
// chains (merge-join friendly), stars (all joins on one variable), a mixed
// star+chain multi-join, and a value join with no shared sort order.
var benchQueries = map[string]string{
	"Chain3": "q(X, Z) :- t(X, " + datagen.PropName(0) + ", Y), t(Y, " + datagen.PropName(1) + ", Z)",
	"Chain4": "q(X, W) :- t(X, " + datagen.PropName(0) + ", Y), t(Y, " + datagen.PropName(1) + ", Z), t(Z, " + datagen.PropName(2) + ", W)",
	"Star3": "q(X) :- t(X, " + datagen.PropName(0) + ", Y), t(X, " + datagen.PropName(1) + ", Z), " +
		"t(X, rdf:type, " + datagen.ClassName(0) + ")",
	"Star4": "q(X, Y, Z, W) :- t(X, " + datagen.PropName(0) + ", Y), t(X, " + datagen.PropName(1) + ", Z), " +
		"t(X, " + datagen.PropName(2) + ", W)",
	"MultiJoin5": "q(X, W) :- t(X, rdf:type, " + datagen.ClassName(0) + "), t(X, " + datagen.PropName(0) + ", Y), " +
		"t(X, " + datagen.PropName(1) + ", Z), t(Y, " + datagen.PropName(2) + ", W), t(W, " + datagen.PropName(3) + ", V)",
	"ValueJoin": "q(X, Z) :- t(X, " + datagen.PropName(0) + ", Y), t(Z, " + datagen.PropName(1) + ", Y)",
}

// benchBoth runs the same query through the legacy index-nested-loop
// evaluator and the planned streaming pipeline, so `go test -bench` yields a
// direct old-vs-new comparison per shape.
func benchBoth(b *testing.B, src string) {
	st, p := benchData(b)
	q := p.MustParseQuery(src)
	want, err := EvalQueryINL(st, q)
	if err != nil {
		b.Fatal(err)
	}
	got, err := EvalQuery(st, q)
	if err != nil {
		b.Fatal(err)
	}
	if !got.EqualAsSet(want) {
		b.Fatalf("pipeline disagrees with INL: %d vs %d rows", got.Len(), want.Len())
	}
	b.Run("inl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := EvalQueryINL(st, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := EvalQuery(st, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEvalChain3(b *testing.B)     { benchBoth(b, benchQueries["Chain3"]) }
func BenchmarkEvalChain4(b *testing.B)     { benchBoth(b, benchQueries["Chain4"]) }
func BenchmarkEvalStar3(b *testing.B)      { benchBoth(b, benchQueries["Star3"]) }
func BenchmarkEvalStar4(b *testing.B)      { benchBoth(b, benchQueries["Star4"]) }
func BenchmarkEvalMultiJoin5(b *testing.B) { benchBoth(b, benchQueries["MultiJoin5"]) }
func BenchmarkEvalValueJoin(b *testing.B)  { benchBoth(b, benchQueries["ValueJoin"]) }

func BenchmarkExecuteHashJoin(b *testing.B) {
	st, p := benchData(b)
	v1 := p.MustParseQuery("q(X, Y) :- t(X, " + datagen.PropName(0) + ", Y)")
	p.ResetNames()
	v2 := p.MustParseQuery("q(Y, Z) :- t(Y, " + datagen.PropName(1) + ", Z)")
	r1, err := Materialize(st, v1)
	if err != nil {
		b.Fatal(err)
	}
	r2, err := Materialize(st, v2)
	if err != nil {
		b.Fatal(err)
	}
	// Align labels: v1 = (X, Y), v2 = (Y, Z) joined on Y.
	y := v1.Head[1]
	plan := algebra.NewJoin(
		algebra.NewScan(1, v1.Head),
		algebra.NewScan(2, []cq.Term{y, v2.Head[1]}),
	)
	resolve := MapResolver(map[algebra.ViewID]*Relation{1: r1, 2: r2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(plan, resolve); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaterializeView(b *testing.B) {
	st, p := benchData(b)
	v := p.MustParseQuery("q(X, Y) :- t(X, " + datagen.PropName(2) + ", Y)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Materialize(st, v); err != nil {
			b.Fatal(err)
		}
	}
}

// benchShardedData loads the standard 20k-triple benchmark dataset into a
// k-shard store over the same dictionary as benchData.
func benchShardedData(b *testing.B, k int) (*store.Store, *cq.Parser) {
	b.Helper()
	st, _ := datagen.Generate(datagen.Config{Triples: 20000, Seed: 1})
	if k == 1 {
		st.Count(store.Pattern{})
		return st, cq.NewParser(st.Dict())
	}
	sh := store.NewWithDictSharded(st.Dict(), k)
	sh.AddBatch(st.Triples())
	sh.Count(store.Pattern{})
	return sh, cq.NewParser(sh.Dict())
}

// benchShardQuery runs one query shape over 1-, 2- and 4-shard stores; with
// >1 shard the driving scan fans out across the exchange operators, so the
// sub-benchmarks measure the parallel speedup (bounded by GOMAXPROCS).
func benchShardQuery(b *testing.B, src string) {
	oldMin := parallelScanMinRows
	parallelScanMinRows = 0
	defer func() { parallelScanMinRows = oldMin }()
	var baseline *Relation
	for _, k := range []int{1, 2, 4} {
		st, p := benchShardedData(b, k)
		q := p.MustParseQuery(src)
		got, err := EvalQuery(st, q)
		if err != nil {
			b.Fatal(err)
		}
		if baseline == nil {
			baseline = got
		} else if !got.EqualAsSet(baseline) {
			b.Fatalf("shards=%d disagrees with single shard: %d vs %d rows", k, got.Len(), baseline.Len())
		}
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := EvalQuery(st, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPlannerChain builds the planner benchmark's chain dataset: a sparse
// first hop (300 p0 edges) into large but selective p1/p2/p3 relations
// (20000 edges each, out-degree ~1), the shape where the sort-break plan —
// sort the small pipeline, merge against the big already-sorted predicate
// index — beats cascading hash joins that build a 20000-entry table per hop.
func benchPlannerChain(b *testing.B) (*store.Store, *cq.Query) {
	b.Helper()
	st := store.New()
	d := st.Dict()
	rng := rand.New(rand.NewSource(11))
	n := func(i int) dict.ID { return d.EncodeIRI(fmt.Sprintf("n%d", i)) }
	for i := 0; i < 300; i++ {
		st.Add(store.Triple{d.EncodeIRI(fmt.Sprintf("a%d", i)), d.EncodeIRI("p0"), n(rng.Intn(20000))})
	}
	for _, pred := range []string{"p1", "p2", "p3"} {
		pid := d.EncodeIRI(pred)
		for i := 0; i < 20000; i++ {
			st.Add(store.Triple{n(rng.Intn(20000)), pid, n(rng.Intn(20000))})
		}
	}
	q := cq.NewParser(d).MustParseQuery(
		"q(X, V) :- t(X, p0, Y), t(Y, p1, Z), t(Z, p2, W), t(W, p3, V)")
	return st, q
}

// BenchmarkPlannerChain4 measures the merge-past-sort-break win on a chain of
// four atoms: "hash-only" is the pre-Sort planner (cascading hash joins),
// "sort-merge" the current one (scan → merge → sort → merge → sort → merge).
// Results are recorded in BENCH_planner.json.
func BenchmarkPlannerChain4(b *testing.B) {
	st, q := benchPlannerChain(b)
	defer func(old bool) { enablePlannerDepth = old }(enablePlannerDepth)
	enablePlannerDepth = false
	baseline, err := EvalQuery(st, q)
	if err != nil {
		b.Fatal(err)
	}
	enablePlannerDepth = true
	got, err := EvalQuery(st, q)
	if err != nil {
		b.Fatal(err)
	}
	if !got.EqualAsSet(baseline) {
		b.Fatalf("sort-merge plan disagrees with hash-only baseline: %d vs %d rows",
			got.Len(), baseline.Len())
	}
	for _, mode := range []struct {
		name  string
		depth bool
	}{{"hash-only", false}, {"sort-merge", true}} {
		b.Run(mode.name, func(b *testing.B) {
			enablePlannerDepth = mode.depth
			for i := 0; i < b.N; i++ {
				if _, err := EvalQuery(st, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGatherMergeWideFanout runs the ordered-gather chain at high shard
// counts: with 32 streams most shards exhaust early, so the gather's live-set
// tracking (vs re-polling every stream per row) dominates the fan-in cost.
func BenchmarkGatherMergeWideFanout(b *testing.B) {
	oldMin := parallelScanMinRows
	parallelScanMinRows = 0
	defer func() { parallelScanMinRows = oldMin }()
	var baseline *Relation
	for _, k := range []int{8, 32} {
		st, p := benchShardedData(b, k)
		q := p.MustParseQuery(benchQueries["Chain3"])
		got, err := EvalQuery(st, q)
		if err != nil {
			b.Fatal(err)
		}
		if baseline == nil {
			baseline = got
		} else if !got.EqualAsSet(baseline) {
			b.Fatalf("shards=%d disagrees: %d vs %d rows", k, got.Len(), baseline.Len())
		}
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := EvalQuery(st, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkShardFullScan(b *testing.B) {
	benchShardQuery(b, "q(X, P, Y) :- t(X, P, Y)")
}

func BenchmarkShardChainJoin(b *testing.B) {
	benchShardQuery(b, benchQueries["Chain3"])
}

func BenchmarkShardStarJoin(b *testing.B) {
	benchShardQuery(b, benchQueries["Star4"])
}
