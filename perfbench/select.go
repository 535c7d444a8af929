package main

import (
	"errors"
	"fmt"
	"time"

	"rdfviews"
	"rdfviews/internal/core"
	"rdfviews/internal/cost"
	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/rdf"
	"rdfviews/internal/reason"
	"rdfviews/internal/stats"
	"rdfviews/internal/workload"
)

// Sizes of the view-selection stage: selectWorkloads independent workloads,
// each searched by DFS and by GSTR to a fixed state budget, so every counter
// and RCR repeats exactly at a fixed seed.
const (
	selectWorkloads = 12
	selectQueries   = 10
	selectAtoms     = 6
	dfsStates       = 4000
	gstrStates      = 800
	// probeUnionTerms caps the traced reformulation of a selection query.
	// Post-reformulation never reformulates whole queries; six-atom queries
	// over this schema can exceed the library's 200k-term limit after
	// seconds of work, so the probe stops at this smaller cap and counts
	// the queries it cut.
	probeUnionTerms = 2000
)

// search is one recommendation of the select stage.
type search struct {
	strategy rdfviews.Strategy
	res      core.Result
	rcr      float64
}

// selectResult is what the select stage measured. Probe fields are filled
// in traced runs only.
type selectResult struct {
	perWorkload samples // seconds: DFS plus GSTR wall time per workload
	searches    []search
	statsBuild  samples // ms
	reformulate samples // us per query
	unionTerms  samples // per query
	estimate    samples // us per state costing
	overLimit   int     // reformulations cut at probeUnionTerms
}

// vocabulary returns the dataset properties and constants the selection
// workloads draw from.
func vocabulary() (props, consts []string) {
	for i := 0; i < 16; i++ {
		props = append(props, datagen.PropName(i))
	}
	props = append(props, rdf.RDFType)
	for i := 0; i < 24; i++ {
		consts = append(consts, datagen.ResourceName(i))
	}
	for i := 0; i < 8; i++ {
		consts = append(consts, datagen.ClassName(i))
	}
	return props, consts
}

// selectStage runs the recommendations on db under post-reformulation and
// checks each outcome. A traced run also calls the layers a recommendation
// is built from (statistics, reformulation, cost estimation) under spans.
func selectStage(cfg config, db *rdfviews.Database, rep *report, tr *tracer) selectResult {
	var out selectResult
	props, consts := vocabulary()
	comm := workload.Low
	if cfg.spec.high {
		comm = workload.High
	}
	for k := 0; k < selectWorkloads; k++ {
		root := tr.begin("select.workload", span{})
		qs := workload.Generate(db.Store().Dict(), workload.Spec{
			Queries: selectQueries, AtomsPerQuery: selectAtoms, Commonality: comm,
			PropVocab: props, ConstVocab: consts, Seed: cfg.seed*1000 + int64(k),
		})
		wl := &rdfviews.Workload{Queries: qs}
		var wall time.Duration
		var best *core.State
		for _, st := range []struct {
			strategy rdfviews.Strategy
			budget   int
		}{{rdfviews.StrategyDFS, dfsStates}, {rdfviews.StrategyGSTR, gstrStates}} {
			s := tr.begin("rdfviews.recommend_"+string(st.strategy), root)
			rec, err := db.Recommend(wl, rdfviews.Options{
				Strategy: st.strategy, Reasoning: rdfviews.ReasoningPost,
				MaxStates: st.budget, Timeout: 2 * time.Minute,
			})
			d := s.end()
			wall += d
			rep.op(checkSearch(k, st.strategy, rec, err))
			if err != nil {
				continue
			}
			out.searches = append(out.searches, search{strategy: st.strategy, res: rec.Result(), rcr: rec.RCR()})
			best = rec.Result().Best
		}
		out.perWorkload = append(out.perWorkload, wall.Seconds())
		if tr != nil && best != nil {
			if err := out.probe(db, qs, best, tr, root); err != nil {
				rep.op(fmt.Sprintf("select workload %d: %v", k, err))
			}
		}
		root.end()
	}
	return out
}

// checkSearch validates one recommendation: it must succeed within its
// state budget rather than the safety timeout, and not raise the estimated
// cost.
func checkSearch(k int, strategy rdfviews.Strategy, rec *rdfviews.Recommendation, err error) string {
	if err != nil {
		return fmt.Sprintf("select workload %d %s: %v", k, strategy, err)
	}
	r := rec.Result()
	switch {
	case r.TimedOut:
		return fmt.Sprintf("select workload %d %s: timed out before the state budget", k, strategy)
	case r.BestCost.Total > r.InitialCost.Total:
		return fmt.Sprintf("select workload %d %s: best cost %g above initial %g", k, strategy, r.BestCost.Total, r.InitialCost.Total)
	}
	return ""
}

// probe times the layers under a post-reformulation recommendation: the
// reformulated statistics, each query's reformulation and the costing of
// the initial and the best state (uncached, unlike State.Cost).
func (out *selectResult) probe(db *rdfviews.Database, qs []*cq.Query, best *core.State, tr *tracer, root span) error {
	schema := reason.NewSchema(db.Schema(), db.Store().Dict())
	// The statistics compute their global figures lazily; ask for them so
	// the build is timed whole.
	s := tr.begin("stats.build", root)
	provider := stats.NewReformulatedStats(db.Store(), schema)
	provider.TotalTriples()
	out.statsBuild = append(out.statsBuild, float64(s.end().Nanoseconds())/1e6)
	for _, q := range qs {
		s := tr.begin("reason.reformulate", root)
		u, err := reason.Reformulate(q, schema, probeUnionTerms)
		d := s.end()
		out.reformulate = append(out.reformulate, float64(d.Nanoseconds())/1e3)
		switch {
		case errors.Is(err, reason.ErrTooManyUnionTerms):
			out.overLimit++
			out.unionTerms = append(out.unionTerms, probeUnionTerms)
		case err != nil:
			return err
		default:
			out.unionTerms = append(out.unionTerms, float64(u.Len()))
		}
	}
	s0, _, err := core.InitialState(qs)
	if err != nil {
		return err
	}
	est := cost.NewEstimator(provider, cost.DefaultWeights())
	est.W.CM = est.CalibrateCM(s0.ViewQueries(), s0.Plans)
	for _, st := range []*core.State{s0, best} {
		s := tr.begin("cost.estimate", root)
		est.CostState(st.ViewQueries(), st.Plans)
		out.estimate = append(out.estimate, float64(s.end().Nanoseconds())/1e3)
	}
	return nil
}
