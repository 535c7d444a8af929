package core

import (
	"testing"

	"rdfviews/internal/cost"
	"rdfviews/internal/cq"
	"rdfviews/internal/stats"
)

// memoWorkload is a small painters workload with constants, joins and
// shared sub-patterns, so a search reaches states through every transition.
func memoWorkload(p *cq.Parser) []*cq.Query {
	var out []*cq.Query
	for _, s := range []string{
		"q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)",
		"q(X) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, rdf:type, painter)",
		"q(Y) :- t(X, isParentOf, Y), t(Y, hasPainted, irises)",
	} {
		out = append(out, p.MustParseQuery(s))
		p.ResetNames()
	}
	return out
}

// reachedStates returns, in visiting order, up to limit distinct states of
// a stratified depth-first walk from s0 that closes every successor under
// View Fusion: the states a DFS-AVF search admits.
func reachedStates(ctx *Ctx, s0 *State, limit int) []*State {
	seen := map[string]bool{s0.Code(): true}
	out := []*State{s0}
	var walk func(s *State, stage Stage)
	walk = func(s *State, stage Stage) {
		for k := stage; k <= StageVF && len(out) < limit; k++ {
			ctx.enumKind(k, s, func(ns *State) bool {
				ns = ctx.AVFClose(ns, nil)
				if code := ns.Code(); !seen[code] {
					seen[code] = true
					out = append(out, ns)
					next := ns.Stage
					if k > next {
						next = k
					}
					walk(ns, next)
				}
				return len(out) < limit
			})
		}
	}
	walk(s0, s0.Stage)
	return out
}

// TestMemoizedCostMatchesFreshEstimator costs every state a DFS walk
// reaches with one estimator, whose view memo carries over from state to
// state, and checks each breakdown bit for bit against a fresh estimator
// that has seen nothing.
func TestMemoizedCostMatchesFreshEstimator(t *testing.T) {
	st, p, memo := paintersFixture(t)
	s0, ctx, err := InitialState(memoWorkload(p))
	if err != nil {
		t.Fatal(err)
	}
	states := reachedStates(ctx, s0, 300)
	if len(states) < 50 {
		t.Fatalf("walk reached only %d states", len(states))
	}
	provider := stats.NewStoreStats(st)
	for i, s := range states {
		got := s.Cost(memo)
		want := cost.NewEstimator(provider, memo.W).CostState(s.ViewQueries(), s.Plans)
		if got != want {
			t.Fatalf("state %d: memoized %+v, fresh %+v\n%s", i, got, want, s.Format())
		}
	}
}

// TestCostStateOfSeenViewsAllocatesNothing is the allocation gate of the
// view memo: once an estimator has costed a state, costing it again is map
// lookups only. Canonicalizing any view would allocate.
func TestCostStateOfSeenViewsAllocatesNothing(t *testing.T) {
	_, p, est := paintersFixture(t)
	s0, ctx, err := InitialState(memoWorkload(p))
	if err != nil {
		t.Fatal(err)
	}
	states := reachedStates(ctx, s0, 100)
	for _, s := range states {
		s.Cost(est)
	}
	for _, i := range []int{0, len(states) / 2, len(states) - 1} {
		s := states[i]
		views := s.ViewQueries()
		if allocs := testing.AllocsPerRun(50, func() { est.CostState(views, s.Plans) }); allocs > 0 {
			t.Errorf("state %d (%d views): CostState allocates %.0f times per call", i, len(views), allocs)
		}
	}
}
