package engine

import (
	"fmt"
	"strings"
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/store"
)

// cardsFunc adapts a function to the Cards interface, standing in for the
// ε-estimate statistics providers of the view-selection search.
type cardsFunc func(cq.Atom) float64

func (f cardsFunc) AtomCount(a cq.Atom) float64 { return f(a) }

// chainStore builds a layered chain dataset whose first hop (p0) is sparse
// and whose later hops (p1..p3) are dense — the shape where sorting the small
// pipeline to merge against a large, already-sorted predicate index beats
// hash-joining it.
func chainStore(t testing.TB, k int) (*store.Store, *cq.Parser) {
	return chainStoreDual(t, k, 0)
}

// chainStoreDual is chainStore over an explicit placement: subjectK
// subject-hash shards plus objectK object-hash replica shards (0 = none).
func chainStoreDual(t testing.TB, subjectK, objectK int) (*store.Store, *cq.Parser) {
	if h, ok := t.(interface{ Helper() }); ok {
		h.Helper()
	}
	st := store.New()
	if subjectK > 1 || objectK > 0 {
		st = store.NewDual(subjectK, objectK)
	}
	d := st.Dict()
	add := func(s, p, o string) {
		st.Add(store.Triple{d.EncodeIRI(s), d.EncodeIRI(p), d.EncodeIRI(o)})
	}
	n := func(i int) string { return fmt.Sprintf("n%d", i%20) }
	for i := 0; i < 8; i++ {
		add(fmt.Sprintf("a%d", i), "p0", n(i%4))
	}
	// p1..p3 are dense relations over one pool of 20 nodes (160 distinct
	// triples each), so chains, cycles and value joins all have matches.
	for i := 0; i < 16; i++ {
		for j := 0; j < 10; j++ {
			add(n(i), "p1", n(i+j))
			add(n(i+j), "p2", n(i+3*j))
			add(n(i), "p3", n(i+2*j+5))
		}
	}
	return st, cq.NewParser(d)
}

const chain4Src = "q(X, V) :- t(X, p0, Y), t(Y, p1, Z), t(Z, p2, W), t(W, p3, V)"

// TestPlanChainOfFourSortBreak is the acceptance shape of the Sort operator:
// a chain of four atoms must plan with at least two merge joins separated by
// an explicit Sort — the pipeline re-sorts at each sort break instead of
// degenerating into cascading hash joins.
func TestPlanChainOfFourSortBreak(t *testing.T) {
	st, p := chainStore(t, 1)
	q := p.MustParseQuery(chain4Src)
	plan, err := PlanQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	ops := plan.Describe().Operators()
	merges, sorts := 0, 0
	sawSortBetweenMerges := false
	seenMerge := false
	for _, op := range ops {
		switch op {
		case "MergeJoin":
			merges++
			seenMerge = true
		case "Sort":
			sorts++
			if seenMerge {
				sawSortBetweenMerges = true
			}
		case "HashJoin":
			t.Fatalf("chain should not hash-join, got %v\n%s", ops, plan.Explain())
		}
	}
	if merges < 2 || sorts < 1 || !sawSortBetweenMerges {
		t.Fatalf("chain of 4 should plan ≥2 merge joins separated by a Sort, got %d merges, %d sorts:\n%s",
			merges, sorts, plan.Explain())
	}
	assertSameAnswers(t, st, q)
}

// TestPlanDepthAgainstINLShapes is the INL-oracle differential matrix of the
// planner-depth features: chain, star, cycle and repeated-variable shapes,
// each evaluated over a flat, a 4-subject-shard and a 4×4 dual-partitioned
// store, with planner depth on and off — all combinations must agree with
// the recursive oracle.
func TestPlanDepthAgainstINLShapes(t *testing.T) {
	forceParallel(t)
	defer func() { enablePlannerDepth = true }()
	shapes := []string{
		chain4Src,
		"q(X) :- t(X, p1, Y), t(X, p2, Z), t(X, p3, W)",    // star
		"q(X, Z) :- t(X, p1, Y), t(Y, p2, Z), t(Z, p1, X)", // cycle
		"q(X, Y) :- t(X, p1, Y), t(Y, p2, X)",              // 2-cycle (two shared vars)
		"q(X) :- t(X, p2, X)",                              // repeated variable
		"q(X, W) :- t(X, p1, Y), t(Z, p2, Y), t(Z, p3, W)", // value join mid-chain
		"q(X, Z) :- t(X, p1, Y), t(Y, p2, Z), t(X, p3, Z)", // diamond closure
	}
	layouts := []struct{ subjectK, objectK int }{{1, 0}, {4, 0}, {4, 4}}
	for _, depth := range []bool{true, false} {
		enablePlannerDepth = depth
		for _, lay := range layouts {
			st, p := chainStoreDual(t, lay.subjectK, lay.objectK)
			for _, src := range shapes {
				q := p.MustParseQuery(src)
				p.ResetNames()
				got, err := EvalQuery(st, q)
				if err != nil {
					t.Fatalf("depth=%v layout=%d/%d %s: %v", depth, lay.subjectK, lay.objectK, src, err)
				}
				want, err := EvalQueryINL(st, q)
				if err != nil {
					t.Fatal(err)
				}
				if !got.EqualAsSet(want) {
					t.Fatalf("depth=%v layout=%d/%d %s: pipeline %d rows, INL %d rows",
						depth, lay.subjectK, lay.objectK, src, got.Len(), want.Len())
				}
			}
		}
	}
	enablePlannerDepth = true
}

// TestPlanBuildSideChoice pins the cost-based hash-join build side: when the
// pipeline-so-far is estimated smaller than the atom the table is built over
// the pipeline (build=left), and over the atom otherwise (build=right). The
// ε-estimates are chosen so the hash join beats sorting at the break.
func TestPlanBuildSideChoice(t *testing.T) {
	st, p := chainStore(t, 1)
	pred := func(a cq.Atom) string {
		s, _ := st.Dict().Decode(a[1].ConstID())
		return s.Value
	}
	checkAgainstOracle := func(t *testing.T, plan *QueryPlan, q *cq.Query) {
		t.Helper()
		r, err := plan.Eval()
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvalQueryINL(st, q)
		if err != nil {
			t.Fatal(err)
		}
		if !r.EqualAsSet(want) {
			t.Fatalf("build-side plan answers differ from INL: %d vs %d rows", r.Len(), want.Len())
		}
	}

	// The break at p2 sits in the narrow band where the hash join still
	// beats sorting 128 pipeline rows AND the pipeline is a buildLeftMargin
	// below the atom (128·16 < 2200) => hash join, build=left.
	q := p.MustParseQuery("q(X, V) :- t(X, p0, Y), t(Y, p1, Z), t(Z, p2, W), t(W, p3, V)")
	est := cardsFunc(func(a cq.Atom) float64 {
		switch pred(a) {
		case "p0":
			return 128
		case "p1":
			return 4000
		case "p2":
			return 2200
		default:
			return 3000
		}
	})
	plan, err := PlanQueryWithStats(st, q, est)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain()
	if !strings.Contains(out, "build=left") {
		t.Fatalf("pipeline smaller than atom should build=left:\n%s", out)
	}
	if strings.Contains(out, "Sort") {
		t.Fatalf("large near-equal sides should prefer hash joins over sorting:\n%s", out)
	}
	checkAgainstOracle(t, plan, q)

	// A cross product inflates the pipeline past the next atom's extent
	// (30×40 = 1200 > 500), so the join after it builds over the atom side:
	// build=right, with the probe pipeline streaming through.
	p.ResetNames()
	q = p.MustParseQuery("q(X, V) :- t(X, p0, Y), t(Z, p1, W), t(W, p2, V)")
	est = cardsFunc(func(a cq.Atom) float64 {
		switch pred(a) {
		case "p0":
			return 30
		case "p1":
			return 40
		default:
			return 500
		}
	})
	plan, err = PlanQueryWithStats(st, q, est)
	if err != nil {
		t.Fatal(err)
	}
	out = plan.Explain()
	if !strings.Contains(out, "CrossProduct") || !strings.Contains(out, "build=right") {
		t.Fatalf("inflated pipeline should build=right after the cross:\n%s", out)
	}
	checkAgainstOracle(t, plan, q)
}

// TestStoreCardsRepeatedVariable is the regression test for AtomCount on
// repeated-variable atoms: t(X, p, X) must count (or estimate) only the
// triples passing the equality, not every p-triple.
func TestStoreCardsRepeatedVariable(t *testing.T) {
	st := store.New()
	d := st.Dict()
	add := func(s, p, o string) {
		st.Add(store.Triple{d.EncodeIRI(s), d.EncodeIRI(p), d.EncodeIRI(o)})
	}
	// 40 loop-free p-triples plus 3 reflexive ones.
	for i := 0; i < 40; i++ {
		add(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i))
	}
	for i := 0; i < 3; i++ {
		add(fmt.Sprintf("r%d", i), "p", fmt.Sprintf("r%d", i))
	}
	// 10 q-triples.
	for i := 0; i < 10; i++ {
		add(fmt.Sprintf("r%d", i%3), "q", fmt.Sprintf("w%d", i))
	}
	p := cq.NewParser(d)
	reflexive := p.MustParseQuery("q(X) :- t(X, p, X)").Atoms[0]
	cards := storeCards{st}
	if got := cards.AtomCount(reflexive); got != 3 {
		t.Fatalf("AtomCount(t(X,p,X)) = %v, want exact 3", got)
	}

	// Above the scan limit the √n discount applies instead of the raw count.
	old := repeatedVarScanLimit
	repeatedVarScanLimit = 10
	raw := float64(st.Count(store.Pattern{0, d.EncodeIRI("p"), 0}))
	if got := cards.AtomCount(reflexive); got >= raw || got <= 0 {
		t.Fatalf("discounted AtomCount = %v, want in (0, %v)", got, raw)
	}
	repeatedVarScanLimit = old

	// The fixed greedy order: the reflexive atom (3 matches) must drive the
	// plan ahead of the q atom (10 matches) — under the old all-p count (43)
	// the q atom would have driven.
	q := p.MustParseQuery("q(X, Y) :- t(X, p, X), t(X, q, Y)")
	plan, err := PlanQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.steps[0].spec.atom[1] != reflexive[1] {
		t.Fatalf("repeated-variable atom should drive the plan:\n%s", plan.Explain())
	}
	assertSameAnswers(t, st, q)
}

// TestDistinctSizeHint pins the clamp at both ends: small estimates size the
// distinct set down to them (a point lookup should not pay for a 64-slot
// table; newIDTable's 16-slot floor bounds the low end and an undersized
// table doubles on the way up), and estimates at or above the cap size it to
// the cap instead of being discarded (the old cliff back to a 64-slot table).
func TestDistinctSizeHint(t *testing.T) {
	cases := []struct {
		est  float64
		want int
	}{
		{0, 1},
		{63, 63},
		{1000, 1000},
		{1 << 20, distinctHintCap},
		{1 << 21, distinctHintCap},
		{1e18, distinctHintCap},
	}
	for _, c := range cases {
		if got := distinctSizeHint(c.est); got != c.want {
			t.Errorf("distinctSizeHint(%v) = %d, want %d", c.est, got, c.want)
		}
	}
}

// TestPlanMultiKeyMergeResidual pins the multi-shared-variable merge join on
// a flat fixture: both orders of a 2-cycle must agree with the oracle, and
// the plan must carry the residual detail.
func TestPlanMultiKeyMergeResidual(t *testing.T) {
	st, p := chainStore(t, 1)
	q := p.MustParseQuery("q(X, Y) :- t(X, p1, Y), t(Y, p2, X)")
	plan, err := PlanQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain()
	if !strings.Contains(out, "MergeJoin") || !strings.Contains(out, "residual=[") {
		t.Fatalf("2-cycle should merge with residual equality:\n%s", out)
	}
	assertSameAnswers(t, st, q)
}
