package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"rdfviews"
	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/persist"
	"rdfviews/internal/rdf"
	"rdfviews/internal/reason"
	"rdfviews/internal/server"
	"rdfviews/internal/store"
	"rdfviews/internal/workload"
)

// Sizes of the served deployment.
const (
	datasetTriples = 10000 // explicit data triples (about 4.5x after saturation)
	schemaSeed     = 2011  // the RDFS is fixed, as the paper's Barton schema is
	servedAtoms    = 3     // atoms per served query
	servedPerRung  = 6     // served queries per answer-size rung
	candidates     = 240   // satisfiable queries generated to fill the rungs
	topRung        = 4     // rung 4 holds answers of 64..255 rows
	maxAnswerRows  = 255
	setupStates    = 200  // state budget of the deployment's recommendation
	queueDepth     = 1024 // asynchronous maintenance queue
	setupRepeats   = 3    // set-ups per run; setup_s is their median
	writePool      = 24   // distinct triples the churn writer cycles through
)

// rungOf returns the answer-size rung of an answer with n rows: 0 for an
// empty answer, k for 4^(k-1) <= n < 4^k, and -1 past maxAnswerRows. The
// serve mix draws every rung equally often, so the latency mixture keeps
// its shape from seed to seed while the queries themselves change.
func rungOf(n int) int {
	if n > maxAnswerRows {
		return -1
	}
	k := 0
	for lim := 1; n >= lim; lim *= 4 {
		k++
	}
	return k
}

// prepared holds the inputs generated from the seed and the oracle's view of
// them. It is built from its own copy of the data, so nothing the benchmark
// does to check answers touches the deployment under test.
type prepared struct {
	image []byte
	db    *rdfviews.Database
	sat   *store.Store // saturated copy: the oracle's database
	dict  *dict.Dictionary

	served []string // workload query texts, in workload order
	mix    []mixEntry
	rungs  [topRung + 1][]int // mix entries per answer-size rung
	pool   []store.Triple     // churn write targets, all present in sat
	lines  []string           // pool as N-Triples lines
}

// mixEntry is one distinct query text of the serve mix.
type mixEntry struct {
	text   string
	url    string // filled once the server listens
	q      *cq.Query
	served int // index into the served workload, or -1 for a rotated copy
	rung   int // answer-size rung, see rungOf
	want   answer
}

// answer is a result multiset reduced to its size and a digest of its
// sorted rows.
type answer struct {
	rows int
	sum  [32]byte
}

func digest(rows [][]string) answer {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0x1e})
	}
	var a answer
	a.rows = len(rows)
	copy(a.sum[:], h.Sum(nil))
	return a
}

// generateImage builds the seeded Barton-like dataset, adds the fixed
// schema and saves both as a database image.
func generateImage(seed int64, tr *tracer, parent span) ([]byte, error) {
	s := tr.begin("datagen.generate", parent)
	st, _ := datagen.Generate(datagen.Config{Triples: datasetTriples, Seed: seed})
	schema := datagen.GenerateSchema(datagen.Config{Seed: schemaSeed})
	s.end()
	s = tr.begin("persist.save", parent)
	defer s.end()
	var buf bytes.Buffer
	if err := persist.SaveDatabase(&buf, st, schema); err != nil {
		return nil, fmt.Errorf("saving the database image: %w", err)
	}
	return buf.Bytes(), nil
}

// oracleRows evaluates q directly on st, bypassing views and plan caches,
// and decodes the rows the way the serving tier renders them.
func oracleRows(st store.Reader, d *dict.Dictionary, q *cq.Query) ([][]string, error) {
	rel, err := engine.EvalQuery(st, q)
	if err != nil {
		return nil, err
	}
	col := map[cq.Term]int{}
	for i, c := range rel.Cols {
		col[c] = i
	}
	out := make([][]string, len(rel.Rows))
	for i, row := range rel.Rows {
		r := make([]string, len(q.Head))
		for j, h := range q.Head {
			id := dict.ID(0)
			if h.IsConst() {
				id = h.ConstID()
			} else if k, ok := col[h]; ok {
				id = row[k]
			} else {
				return nil, fmt.Errorf("oracle: head term %v not in result columns", h)
			}
			r[j] = renderTerm(d, id)
		}
		out[i] = r
	}
	return out, nil
}

func renderTerm(d *dict.Dictionary, id dict.ID) string {
	t, err := d.Decode(id)
	switch {
	case err != nil:
		return fmt.Sprintf("?%d", id)
	case t.Kind == rdf.IRI:
		return rdf.ShortenIRI(t.Value)
	}
	return t.Value
}

// prepare generates the run's inputs from the seed: the dataset image, the
// served workload (satisfiable queries, servedPerRung per answer-size rung
// from 1 to maxAnswerRows rows), the serve mix with its rotated copies, the
// churn write pool, and the oracle's answer for every mix text.
func prepare(cfg config, tr *tracer) (*prepared, float64, error) {
	img, err := generateImage(cfg.seed, nil, span{})
	if err != nil {
		return nil, 0, err
	}
	db, err := rdfviews.OpenDatabase(bytes.NewReader(img))
	if err != nil {
		return nil, 0, fmt.Errorf("loading the database image: %w", err)
	}
	p := &prepared{image: img, db: db, dict: db.Store().Dict()}
	s := tr.begin("reason.saturate", span{})
	p.sat = reason.Saturate(db.Store(), reason.NewSchema(db.Schema(), p.dict))
	saturate := s.end().Seconds()

	comm := workload.Low
	if cfg.spec.high {
		comm = workload.High
	}
	cands, err := workload.GenerateSatisfiable(db.Store(), workload.Spec{
		Queries: candidates, AtomsPerQuery: servedAtoms, Commonality: comm, Seed: cfg.seed,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("generating the served workload: %w", err)
	}
	seen := map[string]bool{}
	var filled [topRung + 1]int
	for _, q := range cands {
		text := q.Format(p.dict)
		if seen[text] {
			continue
		}
		seen[text] = true
		rows, err := oracleRows(p.sat, p.dict, q)
		if err != nil {
			return nil, 0, err
		}
		r := rungOf(len(rows))
		if r < 1 || filled[r] == servedPerRung {
			continue
		}
		filled[r]++
		p.mix = append(p.mix, mixEntry{text: text, q: q, served: len(p.served), rung: r, want: digest(rows)})
		p.served = append(p.served, text)
	}
	if len(p.served) < 2*servedPerRung {
		return nil, 0, fmt.Errorf("only %d served queries from %d candidates (per rung: %v)", len(p.served), len(cands), filled)
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	if err := p.addRotations(cfg.spec.rotations, rng, seen); err != nil {
		return nil, 0, err
	}
	for i, e := range p.mix {
		p.rungs[e.rung] = append(p.rungs[e.rung], i)
	}
	if err := p.pickPool(rng); err != nil {
		return nil, 0, err
	}
	return p, saturate, nil
}

// pick draws a mix entry: a rung uniformly among the non-empty ones, then
// an entry of that rung uniformly.
func (p *prepared) pick(rng *rand.Rand) int {
	for {
		r := p.rungs[rng.Intn(len(p.rungs))]
		if len(r) > 0 {
			return r[rng.Intn(len(r))]
		}
	}
}

// addRotations adds up to n copies of each served query whose subject and
// object constants (other than rdf:type classes, which are never lifted) are
// replaced by values the same property has in the data. A copy keeps its
// query's lifted shape but no longer matches a workload query, so it is
// answered through a cached store template.
func (p *prepared) addRotations(n int, rng *rand.Rand, seen map[string]bool) error {
	typeID, _ := p.dict.LookupIRI(rdf.RDFType)
	subj := map[dict.ID][]dict.ID{}
	obj := map[dict.ID][]dict.ID{}
	for _, t := range p.db.Store().Triples() {
		subj[t[store.P]] = append(subj[t[store.P]], t[store.S])
		obj[t[store.P]] = append(obj[t[store.P]], t[store.O])
	}
	for i := 0; i < len(p.served); i++ {
		base := p.mix[i].q
		for made, tries := 0, 0; made < n && tries < 4*n; tries++ {
			q := base.Clone()
			changed := false
			for ai, a := range q.Atoms {
				if !a[1].IsConst() {
					continue
				}
				prop := a[1].ConstID()
				if a[0].IsConst() && len(subj[prop]) > 0 {
					q.Atoms[ai][0] = cq.Const(subj[prop][rng.Intn(len(subj[prop]))])
					changed = true
				}
				if a[2].IsConst() && prop != typeID && len(obj[prop]) > 0 {
					q.Atoms[ai][2] = cq.Const(obj[prop][rng.Intn(len(obj[prop]))])
					changed = true
				}
			}
			if !changed {
				break // nothing liftable to rotate
			}
			text := q.Format(p.dict)
			if seen[text] {
				continue
			}
			rows, err := oracleRows(p.sat, p.dict, q)
			if err != nil {
				return err
			}
			r := rungOf(len(rows))
			if r < 0 {
				continue
			}
			seen[text] = true
			p.mix = append(p.mix, mixEntry{text: text, q: q, served: -1, rung: r, want: digest(rows)})
			made++
		}
	}
	return nil
}

// pickPool samples the churn writes' targets: explicit data triples whose
// property occurs in the served workload, so their deletion and re-insertion
// feeds the maintained views.
func (p *prepared) pickPool(rng *rand.Rand) error {
	props := map[dict.ID]bool{}
	for _, e := range p.mix[:len(p.served)] {
		for _, a := range e.q.Atoms {
			if a[1].IsConst() {
				props[a[1].ConstID()] = true
			}
		}
	}
	var cands []store.Triple
	for _, t := range p.db.Store().Triples() {
		if props[t[store.P]] {
			cands = append(cands, t)
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) < writePool {
		return fmt.Errorf("only %d triples feed the served views; the churn stage needs %d", len(cands), writePool)
	}
	for _, t := range cands[:writePool] {
		p.pool = append(p.pool, t)
		p.lines = append(p.lines, fmt.Sprintf("%s %s %s .", p.term(t[store.S]), p.term(t[store.P]), p.term(t[store.O])))
	}
	return nil
}

func (p *prepared) term(id dict.ID) string {
	t, err := p.dict.Decode(id)
	if err != nil {
		return fmt.Sprintf("?%d", id)
	}
	return t.String()
}

// deployment is the system under test: a recommendation under saturation
// over a reloaded database, its asynchronously maintained views and the
// HTTP front end on a loopback port.
type deployment struct {
	rec      *rdfviews.Recommendation
	lv       *rdfviews.LiveViews
	srv      *server.Server
	base     string
	serveErr chan error // the accept loop's exit
}

// setupTimes are the stages of one set-up, in seconds.
type setupTimes struct {
	total, load float64
}

// deploy performs one timed set-up from the seed: data generation, image
// save and reload, recommendation, maintenance and server start.
func deploy(cfg config, texts []string, tr *tracer) (*deployment, setupTimes, error) {
	var t setupTimes
	root := tr.begin("setup", span{})
	img, err := generateImage(cfg.seed, tr, root)
	if err != nil {
		return nil, t, err
	}
	s := tr.begin("persist.load", root)
	db, err := rdfviews.OpenDatabase(bytes.NewReader(img))
	t.load = s.end().Seconds()
	if err != nil {
		return nil, t, fmt.Errorf("loading the database image: %w", err)
	}
	s = tr.begin("cq.parse_workload", root)
	wl, err := db.ParseWorkload(strings.Join(texts, "\n"))
	s.end()
	if err != nil {
		return nil, t, fmt.Errorf("parsing the served workload: %w", err)
	}
	s = tr.begin("rdfviews.recommend_saturate", root)
	rec, err := db.Recommend(wl, rdfviews.Options{Reasoning: rdfviews.ReasoningSaturate, MaxStates: setupStates, Timeout: time.Minute})
	s.end()
	if err != nil {
		return nil, t, fmt.Errorf("recommending the served views: %w", err)
	}
	s = tr.begin("rdfviews.maintain", root)
	lv, err := rec.MaintainWithOptions(rdfviews.MaintainOptions{QueueDepth: queueDepth, StaleReads: rdfviews.ServeStale})
	s.end()
	if err != nil {
		return nil, t, fmt.Errorf("maintaining the served views: %w", err)
	}
	s = tr.begin("server.start", root)
	d, err := startServer(rec, lv)
	s.end()
	if err != nil {
		lv.Close()
		return nil, t, err
	}
	t.total = root.end().Seconds()
	return d, t, nil
}

// startServer serves /sparql over lv on a loopback port.
func startServer(rec *rdfviews.Recommendation, lv *rdfviews.LiveViews) (*deployment, error) {
	srv, err := server.New(server.Config{
		Backend: server.BackendFunc(func(ctx context.Context, q string) (server.Stream, error) {
			s, err := lv.AnswerQueryStream(ctx, q)
			if err != nil {
				return nil, err
			}
			return s, nil
		}),
	})
	if err != nil {
		return nil, fmt.Errorf("starting the server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	d := &deployment{rec: rec, lv: lv, srv: srv, base: "http://" + ln.Addr().String(), serveErr: make(chan error, 1)}
	go func() { d.serveErr <- srv.Serve(ln) }()
	return d, nil
}

// close stops the server, waits for its accept loop to exit and stops the
// maintenance goroutine.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if lerr := d.lv.Close(); err == nil {
		err = lerr
	}
	return err
}

func (d *deployment) urlFor(text string) string {
	return d.base + "/sparql?query=" + url.QueryEscape(text)
}
