package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"rdfviews"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

// checkChurn checks the churn stage. Every write must succeed. A read taken
// while writes were in flight must equal the oracle over some state the
// store passed through: the original, or the original minus one pool triple
// whose deletion started before the read ended. After the final flush, the
// write log is replayed on a copy of the oracle's store and every mix query
// is asked once more over HTTP and compared with the replayed oracle.
func checkChurn(p *prepared, c *http.Client, ch churnResult, rep *report) error {
	for k, w := range ch.writes {
		if w.err != nil {
			rep.op(fmt.Sprintf("churn write %d: %v", k, w.err))
		} else {
			rep.op("")
		}
	}

	without := map[int]*store.Store{} // pool index -> oracle store minus that triple
	memo := map[[2]int]answer{}
	answerWithout := func(entry, pool int) (answer, error) {
		key := [2]int{entry, pool}
		if a, ok := memo[key]; ok {
			return a, nil
		}
		st, ok := without[pool]
		if !ok {
			st = p.sat.Clone()
			st.Remove(p.pool[pool])
			without[pool] = st
		}
		rows, err := oracleRows(st, p.dict, p.mix[entry].q)
		if err != nil {
			return answer{}, err
		}
		memo[key] = digest(rows)
		return memo[key], nil
	}
	for _, r := range ch.reads {
		if r.err != nil || r.got == p.mix[r.entry].want {
			rep.op(check("churn", p, r.entry, r.got, r.err))
			continue
		}
		ok := false
		tried := map[int]bool{}
		for _, w := range ch.writes {
			if !w.del || !w.start.Before(r.end) || tried[w.pool] {
				continue
			}
			tried[w.pool] = true
			a, err := answerWithout(r.entry, w.pool)
			if err != nil {
				return err
			}
			if a == r.got {
				ok = true
				break
			}
		}
		if ok {
			rep.op("")
		} else {
			rep.op(fmt.Sprintf("churn query %d: %d rows match no state the store passed through: %s", r.entry, r.got.rows, p.mix[r.entry].text))
		}
	}

	final := p.sat.Clone()
	for _, w := range ch.writes {
		if w.del {
			final.Remove(p.pool[w.pool])
		} else {
			final.Add(p.pool[w.pool])
		}
	}
	for i, e := range p.mix {
		want, err := oracleRows(final, p.dict, e.q)
		if err != nil {
			return err
		}
		got, err := fetch(c, e.url)
		switch {
		case err != nil:
			rep.op(fmt.Sprintf("after churn query %d: %v", i, err))
		case got != digest(want):
			rep.op(fmt.Sprintf("after churn query %d: %d rows differ from the replayed oracle's %d: %s", i, got.rows, len(want), e.text))
		default:
			rep.op("")
		}
	}
	return nil
}

// serveProbe makes, for a sample of serve requests, the layer calls behind
// an answer itself, each under a span of one request: parse, lift, plan,
// execute over the view extents or the store, decode, then the same query
// in-process and over HTTP. It runs on the oracle's copy of the data and on
// a materialization of the recommended views, so it reads the deployment
// only through its public answering calls.
type serveProbe struct {
	p      *prepared
	d      *deployment
	c      *http.Client
	tr     *tracer
	mat    *rdfviews.Materialized
	typeID dict.ID
	views  []int // mix entries answered through view routes
	stores []int // rotated mix entries, answered through store templates

	parse, lift, plan, viewExec, storeExec, decode, answer, overhead samples // us
}

func newServeProbe(p *prepared, d *deployment, c *http.Client, tr *tracer) (*serveProbe, error) {
	mat, err := d.rec.Materialize()
	if err != nil {
		return nil, fmt.Errorf("materializing the served views: %w", err)
	}
	typeID, _ := p.dict.LookupIRI(rdf.RDFType)
	sp := &serveProbe{p: p, d: d, c: c, tr: tr, mat: mat, typeID: typeID}
	for i, e := range p.mix {
		if e.served >= 0 {
			sp.views = append(sp.views, i)
		} else {
			sp.stores = append(sp.stores, i)
		}
	}
	return sp, nil
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// run probes the n-th sampled request, alternating between view-routed and
// store-routed mix entries, and checks the in-process answer.
func (sp *serveProbe) run(n int, rep *report) {
	entries := sp.views
	if n%2 == 1 && len(sp.stores) > 0 {
		entries = sp.stores
	}
	i := entries[(n/2)%len(entries)]
	e := sp.p.mix[i]
	tr := sp.tr
	root := tr.begin("serve.request", span{})
	defer root.end()

	s := tr.begin("cq.parse", root)
	q, err := cq.NewParser(sp.p.dict).ParseQuery(e.text)
	sp.parse = append(sp.parse, micros(s.end()))
	if err != nil {
		rep.op(fmt.Sprintf("probe query %d: parse: %v", i, err))
		return
	}
	s = tr.begin("cq.lift", root)
	cq.LiftConstants(q, sp.typeID)
	sp.lift = append(sp.lift, micros(s.end()))

	var rel *engine.Relation
	if e.served >= 0 {
		s = tr.begin("engine.exec_views", root)
		rel, err = sp.mat.AnswerRelation(e.served)
		sp.viewExec = append(sp.viewExec, micros(s.end()))
	} else {
		s = tr.begin("engine.plan", root)
		var plan *engine.QueryPlan
		plan, err = engine.PlanQuery(sp.p.sat, q)
		sp.plan = append(sp.plan, micros(s.end()))
		if err == nil {
			s = tr.begin("engine.exec_store", root)
			rel, err = plan.Eval()
			sp.storeExec = append(sp.storeExec, micros(s.end()))
		}
	}
	if err != nil {
		rep.op(fmt.Sprintf("probe query %d: execute: %v", i, err))
		return
	}
	s = tr.begin("dict.decode", root)
	for _, row := range rel.Rows {
		for _, id := range row {
			renderTerm(sp.p.dict, id)
		}
	}
	sp.decode = append(sp.decode, micros(s.end()))

	s = tr.begin("rdfviews.answer", root)
	rows, err := drain(sp.d.lv, e.text)
	inproc := s.end()
	sp.answer = append(sp.answer, micros(inproc))
	rep.op(check("in-process", sp.p, i, digest(rows), err))

	s = tr.begin("server.http", root)
	got, err := fetch(sp.c, e.url)
	sp.overhead = append(sp.overhead, micros(s.end()-inproc))
	rep.op(check("probe", sp.p, i, got, err))
}

// drain answers text in-process through the streaming surface the server
// uses and collects the rows.
func drain(lv *rdfviews.LiveViews, text string) ([][]string, error) {
	st, err := lv.AnswerQueryStream(context.Background(), text)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var out [][]string
	for {
		slab, err := st.Next()
		if err != nil {
			return nil, err
		}
		if slab == nil {
			return out, nil
		}
		for _, r := range slab {
			out = append(out, append([]string(nil), r...))
		}
	}
}
