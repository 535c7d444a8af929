package main

import (
	"fmt"
	"path/filepath"
	"time"

	"rdfviews"
)

const (
	serveClients = 2   // closed-loop connections of the serve stage
	writeRate    = 100 // churn writes per second, open loop
	readRate     = 200 // churn reads per second, open loop
	// The serve stage's timings are medians over windows of this width, each
	// holding over a thousand reads, so its p99 has ten samples beyond it.
	readWindow = 500 * time.Millisecond
)

// selfTimed lists the span names whose mean self time a traced run reports.
var selfTimed = []string{
	"setup", "datagen.generate", "persist.save", "persist.load", "cq.parse_workload",
	"rdfviews.recommend_saturate", "rdfviews.maintain", "server.start", "reason.saturate",
	"select.workload", "rdfviews.recommend_dfs", "rdfviews.recommend_gstr", "stats.build",
	"reason.reformulate", "cost.estimate",
	"serve.request", "cq.parse", "cq.lift", "engine.plan", "engine.exec_views", "engine.exec_store",
	"dict.decode", "rdfviews.answer", "server.http", "maintain.write", "maintain.flush",
}

func run(cfg config, rep *report) (err error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// The serve and churn stages share the measured time; the select stage
	// is a fixed amount of work.
	stage := time.Duration(cfg.seconds) * time.Second / 2

	p, saturateS, err := prepare(cfg, tr)
	if err != nil {
		return err
	}

	var setups, loads samples
	var d *deployment
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return fmt.Errorf("stopping set-up %d: %w", i, err)
			}
		}
		var t setupTimes
		if d, t, err = deploy(cfg, p.served, tr); err != nil {
			return err
		}
		setups, loads = append(setups, t.total), append(loads, t.load)
	}
	defer func() {
		if cerr := d.close(); err == nil && cerr != nil {
			err = fmt.Errorf("stopping the deployment: %w", cerr)
		}
	}()
	for i := range p.mix {
		p.mix[i].url = d.urlFor(p.mix[i].text)
	}

	sel := selectStage(cfg, p.db, rep, tr)

	c := newClient(serveClients)
	defer c.CloseIdleConnections()
	// One checked pass over the mix warms the caches before timing.
	for i, e := range p.mix {
		got, err := fetch(c, e.url)
		rep.op(check("warm-up", p, i, got, err))
	}

	cache0, prune0, srv0 := d.lv.CacheStats(), d.lv.PruneStats(), d.srv.Counters().Snapshot()
	var reads, traced []read
	var probe *serveProbe
	if tr == nil {
		reads = closedLoop(c, p, serveClients, cfg.seed, time.Now().Add(stage), nil, nil)
	} else {
		reads = closedLoop(c, p, serveClients, cfg.seed, time.Now().Add(stage/2), nil, nil)
		if probe, err = newServeProbe(p, d, c, tr); err != nil {
			return err
		}
		traced = closedLoop(c, p, serveClients, cfg.seed+2, time.Now().Add(stage/2), tr, func(n int) { probe.run(n, rep) })
	}
	cache1, prune1, srv1 := d.lv.CacheStats(), d.lv.PruneStats(), d.srv.Counters().Snapshot()
	for _, r := range append(reads, traced...) {
		rep.op(check("serve", p, r.entry, r.got, r.err))
	}

	ch := churn(d, p, c, cfg.seed, stage, tr)
	cache2 := d.lv.CacheStats()
	if err := checkChurn(p, c, ch, rep); err != nil {
		return err
	}

	if tr == nil {
		rep.add("setup_s", "s", setups.median(), setups.describe())
		rep.add("select_s", "s", sel.perWorkload.median(), fmt.Sprintf("median over workloads of DFS plus GSTR wall time: %s", sel.perWorkload.describe()))
		addReads(rep, reads)
		var churnLat samples
		for _, r := range ch.reads {
			churnLat = append(churnLat, float64(r.latency().Nanoseconds())/1e6)
		}
		lateness := fmt.Sprintf("rate=%d/s generator_late_us: %s", readRate, ch.readLate.describe())
		rep.add("churn_read_p50_ms", "ms", churnLat.median(), churnLat.describe()+" "+lateness)
		rep.show("churn_read_p99_ms", "ms", churnLat.quantile(0.99), churnLat.describe()+" "+lateness)
		var wlat, late, fresh samples
		for _, w := range ch.writes {
			wlat = append(wlat, float64(w.end.Sub(w.due).Nanoseconds())/1e3)
			late = append(late, float64(w.start.Sub(w.due).Nanoseconds())/1e3)
			fresh = append(fresh, float64(w.fresh.Sub(w.due).Nanoseconds())/1e6)
		}
		lateness = fmt.Sprintf("rate=%d/s generator_late_us: %s", writeRate, late.describe())
		rep.show("write_p50_us", "us", wlat.median(), wlat.describe()+" "+lateness)
		rep.show("write_p99_us", "us", wlat.quantile(0.99), wlat.describe()+" "+lateness)
		rep.show("fresh_p50_ms", "ms", fresh.median(), fresh.describe())
		rep.show("fresh_p99_ms", "ms", fresh.quantile(0.99), fresh.describe())
		return nil
	}

	// Per-layer metrics of the traced run.
	var created, dups, discarded int
	var busy time.Duration
	var toBest, rcrDFS, rcrGSTR samples
	for _, s := range sel.searches {
		created += s.res.Counters.Created
		dups += s.res.Counters.Duplicates
		discarded += s.res.Counters.Discarded
		busy += s.res.Duration
		if tl := s.res.Timeline; len(tl) > 0 {
			toBest = append(toBest, tl[len(tl)-1].Elapsed.Seconds())
		}
		if s.strategy == rdfviews.StrategyDFS {
			rcrDFS = append(rcrDFS, s.rcr)
		} else {
			rcrGSTR = append(rcrGSTR, s.rcr)
		}
	}
	rep.add("core.states_per_s", "1/s", float64(created)/busy.Seconds(), fmt.Sprintf("searches=%d", len(sel.searches)))
	rep.add("core.states_created", "count", float64(created), fmt.Sprintf("budgets: dfs=%d gstr=%d per workload", dfsStates, gstrStates))
	rep.add("core.dup_ratio", "ratio", float64(dups)/float64(created), "")
	rep.add("core.discard_ratio", "ratio", float64(discarded)/float64(created), "")
	rep.add("core.time_to_best_s", "s", toBest.median(), toBest.describe())
	rep.add("core.rcr_dfs", "ratio", rcrDFS.mean(), fmt.Sprintf("mean over %d workloads %v", len(rcrDFS), rcrDFS))
	rep.add("core.rcr_gstr", "ratio", rcrGSTR.mean(), fmt.Sprintf("mean over %d workloads %v", len(rcrGSTR), rcrGSTR))
	rep.add("stats.build_ms", "ms", sel.statsBuild.median(), sel.statsBuild.describe())
	rep.add("cost.estimate_us", "us", sel.estimate.median(), sel.estimate.describe())
	rep.add("reason.reformulate_us", "us", sel.reformulate.median(), sel.reformulate.describe())
	rep.add("reason.union_terms", "count", sel.unionTerms.mean(), fmt.Sprintf("cut_at_%d=%d %s", probeUnionTerms, sel.overLimit, sel.unionTerms.describe()))
	rep.add("reason.saturate_s", "s", saturateS, fmt.Sprintf("triples=%d saturated=%d", p.db.NumTriples(), p.sat.Len()))
	rep.add("persist.load_s", "s", loads.median(), loads.describe())
	rep.add("persist.bytes_per_triple", "B", float64(len(p.image))/float64(p.db.NumTriples()), fmt.Sprintf("image=%dB", len(p.image)))

	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	rep.add("plancache.hit_rate", "ratio", float64(hits)/float64(max(hits+misses, 1)), fmt.Sprintf("hits=%d misses=%d", hits, misses))
	rep.add("plancache.compile_ms", "ms", float64((cache1.CompileTime-cache0.CompileTime).Nanoseconds())/1e6/float64(max(misses, 1)), "mean compile per miss")
	rep.add("plancache.invalidations", "count", float64(cache2.Invalidations-cache1.Invalidations), "during churn")
	rep.add("cq.parse_us", "us", probe.parse.median(), probe.parse.describe())
	rep.add("cq.lift_us", "us", probe.lift.median(), probe.lift.describe())
	rep.add("engine.plan_us", "us", probe.plan.median(), probe.plan.describe())
	rep.add("engine.view_exec_us", "us", probe.viewExec.median(), probe.viewExec.describe())
	rep.add("engine.store_exec_us", "us", probe.storeExec.median(), probe.storeExec.describe())
	rep.add("dict.decode_us", "us", probe.decode.median(), probe.decode.describe())
	rows := int64(0)
	for _, r := range append(reads, traced...) {
		rows += int64(r.got.rows)
	}
	rep.add("engine.rows_per_answer", "rows", float64(rows)/float64(max(len(reads)+len(traced), 1)), "")
	opens := prune1.Opens - prune0.Opens
	rep.add("store.shards_per_cursor", "ratio", float64(prune1.ShardsOpened-prune0.ShardsOpened)/float64(max(opens, 1)), fmt.Sprintf("cursor_opens=%d", opens))
	rep.add("rdfviews.answer_us", "us", probe.answer.median(), probe.answer.describe())
	rep.add("server.overhead_us", "us", probe.overhead.median(), probe.overhead.describe())
	rep.add("server.bytes_per_row", "B", float64(srv1.Bytes-srv0.Bytes)/float64(max(srv1.Rows-srv0.Rows, 1)), "")

	var service samples
	for _, w := range ch.writes {
		service = append(service, float64(w.end.Sub(w.start).Nanoseconds())/1e3)
	}
	rep.add("maintain.write_us", "us", service.median(), service.describe())
	rep.add("maintain.flush_ms", "ms", ch.flushes.median(), ch.flushes.describe())
	rep.add("maintain.lag_max", "count", float64(ch.lagMax), "")
	rep.add("maintain.publishes", "count", float64(ch.publishes), fmt.Sprintf("writes=%d", len(ch.writes)))

	var untraced, tracedP50 samples
	for _, w := range readWindows(reads, readWindow) {
		untraced = append(untraced, w.median())
	}
	for _, w := range readWindows(traced, readWindow) {
		tracedP50 = append(tracedP50, w.median())
	}
	rep.add("trace.overhead_us", "us", (tracedP50.median()-untraced.median())*1e3,
		fmt.Sprintf("traced read p50 minus untraced read p50, medians over %v windows; untraced: %s traced: %s", readWindow, untraced.describe(), tracedP50.describe()))
	self := tr.selfTimes()
	for _, name := range selfTimed {
		rep.add("self."+name+"_us", "us", self[name], "mean self time per span")
	}
	path, err := tr.write(filepath.Join(cfg.out, "spans"), fmt.Sprintf("%s-seed%d.jsonl", cfg.spec.name, cfg.seed))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.add("trace.spans", "count", float64(tr.count()), path)
	return nil
}

// addReads reports a closed loop's throughput and its p50 and p99 latency,
// each the median over windows of readWindow. The p99 is printed only: it
// moved by up to a quarter between runs on the host the benchmark was
// built on.
func addReads(rep *report, reads []read) {
	ws := readWindows(reads, readWindow)
	var all samples
	for _, w := range ws {
		all = append(all, w...)
	}
	perWindow := func(stat func(samples) float64) samples {
		out := make(samples, len(ws))
		for i, w := range ws {
			out[i] = stat(w)
		}
		return out
	}
	qps := perWindow(func(w samples) float64 { return float64(len(w)) / readWindow.Seconds() })
	rep.add("read_qps", "1/s", qps.median(), fmt.Sprintf("clients=%d, %d windows of %v: %s", serveClients, len(ws), readWindow, qps.describe()))
	p50 := perWindow(func(w samples) float64 { return w.median() })
	rep.add("read_p50_ms", "ms", p50.median(), fmt.Sprintf("over %d windows: %s; all reads: %s", len(ws), p50.describe(), all.describe()))
	p99 := perWindow(func(w samples) float64 { return w.quantile(0.99) })
	rep.show("read_p99_ms", "ms", p99.median(), fmt.Sprintf("over %d windows: %s; all reads: %s", len(ws), p99.describe(), all.describe()))
}

// check compares one answer with the oracle's answer to mix entry i.
func check(stage string, p *prepared, i int, got answer, err error) string {
	if err != nil {
		return fmt.Sprintf("%s query %d: %v", stage, i, err)
	}
	if want := p.mix[i].want; got != want {
		return fmt.Sprintf("%s query %d: %d rows differ from the oracle's %d: %s", stage, i, got.rows, want.rows, p.mix[i].text)
	}
	return ""
}
