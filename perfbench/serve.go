package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// newClient returns an HTTP client holding at most conns loopback
// connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// sparqlResult is the SPARQL JSON document the server streams; Error is the
// server's marker for a result truncated mid-stream.
type sparqlResult struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]struct {
			Value string `json:"value"`
		} `json:"bindings"`
	} `json:"results"`
	Error *string `json:"error"`
}

// get sends one query and returns the response body.
func get(c *http.Client, u string) ([]byte, error) {
	resp, err := c.Get(u)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, body)
	}
	return body, nil
}

// parseBindings parses a SPARQL JSON result into rows ordered by the head
// variables.
func parseBindings(body []byte) ([][]string, error) {
	var doc sparqlResult
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decoding the SPARQL JSON result: %w", err)
	}
	if doc.Error != nil {
		return nil, fmt.Errorf("truncated result: %s", *doc.Error)
	}
	rows := make([][]string, len(doc.Results.Bindings))
	for i, b := range doc.Results.Bindings {
		r := make([]string, len(doc.Head.Vars))
		for j, v := range doc.Head.Vars {
			x, ok := b[v]
			if !ok {
				return nil, fmt.Errorf("row %d has no binding for %s", i, v)
			}
			r[j] = x.Value
		}
		rows[i] = r
	}
	return rows, nil
}

// fetch sends one query and digests its parsed bindings.
func fetch(c *http.Client, u string) (answer, error) {
	body, err := get(c, u)
	if err != nil {
		return answer{}, err
	}
	rows, err := parseBindings(body)
	if err != nil {
		return answer{}, err
	}
	return digest(rows), nil
}

// read is one timed HTTP request.
type read struct {
	entry      int
	start, end time.Time
	got        answer
	err        error
}

func (r read) latency() time.Duration { return r.end.Sub(r.start) }

// settle parses and digests the fetched body of r.
func (r *read) settle(body []byte) {
	if r.err != nil {
		return
	}
	rows, err := parseBindings(body)
	if err == nil {
		r.got = digest(rows)
	}
	r.err = err
}

// closedLoop runs clients goroutines, each sending its next request as soon
// as the previous one is answered, until the deadline. A request is timed
// until its body has arrived; checking it happens after. The request text is
// drawn by prepared.pick with a per-client generator seeded from seed.
// With a tracer each request gets a span; probe, when set, runs after every
// probeEvery-th request of client 0, outside that request's timing.
func closedLoop(c *http.Client, p *prepared, clients int, seed int64, until time.Time, tr *tracer, probe func(n int)) []read {
	const probeEvery = 8
	out := make([][]read, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(ci)))
			for n := 0; time.Now().Before(until); n++ {
				i := p.pick(rng)
				s := tr.begin("server.http", span{})
				r := read{entry: i, start: time.Now()}
				body, err := get(c, p.mix[i].url)
				r.end, r.err = time.Now(), err
				s.end()
				r.settle(body)
				out[ci] = append(out[ci], r)
				if probe != nil && ci == 0 && n%probeEvery == 0 {
					probe(n / probeEvery)
				}
			}
		}(ci)
	}
	wg.Wait()
	var all []read
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// openLoop sends one request per interval of 1/rate seconds from start
// until the deadline, on one connection, picking texts like closedLoop. A
// request is timed from when it was due, so a slow answer also counts
// against the requests queued behind it; late holds how many microseconds
// after its due time each request left.
func openLoop(c *http.Client, p *prepared, seed int64, rate float64, start, until time.Time) (rs []read, late samples) {
	rng := rand.New(rand.NewSource(seed * 104729))
	interval := time.Duration(float64(time.Second) / rate)
	var bodies [][]byte
	for due := start; due.Before(until); due = due.Add(interval) {
		i := p.pick(rng)
		waitUntil(due)
		late = append(late, float64(time.Since(due).Nanoseconds())/1e3)
		r := read{entry: i, start: due}
		var body []byte
		body, r.err = get(c, p.mix[i].url)
		r.end = time.Now()
		rs, bodies = append(rs, r), append(bodies, body)
	}
	// Parsing after the loop keeps the checker's garbage, and the
	// collections it would trigger, out of the measured stage.
	for k := range rs {
		rs[k].settle(bodies[k])
	}
	return rs, late
}

// readWindows splits reads into consecutive windows of width w by start
// time, latencies in milliseconds; a trailing partial window is dropped.
// The median over windows keeps a burst of load from outside the benchmark,
// which spoils a minority of windows, out of the figures.
func readWindows(rs []read, w time.Duration) []samples {
	if len(rs) == 0 {
		return nil
	}
	first, last := rs[0].start, rs[0].start
	for _, r := range rs {
		if r.start.Before(first) {
			first = r.start
		}
		if r.start.After(last) {
			last = r.start
		}
	}
	out := make([]samples, int(last.Sub(first)/w))
	for _, r := range rs {
		if k := int(r.start.Sub(first) / w); k < len(out) {
			out[k] = append(out[k], float64(r.latency().Nanoseconds())/1e6)
		}
	}
	return out
}

// write is one operation of the open-loop churn writer.
type write struct {
	del        bool
	pool       int
	due        time.Time
	start, end time.Time
	fresh      time.Time // when the write was first seen in published extents
	err        error
}

// waitUntil returns at t. It sleeps until a millisecond before, as a sleep
// overshoots by up to about half a millisecond, and spins the rest of the
// way without yielding: yielding in a loop keeps the processor from polling
// the network for the server. The open loops run at rates low enough that
// the spinning costs a few percent of one core.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// churnResult is what the churn stage observed.
type churnResult struct {
	reads     []read
	readLate  samples // microseconds the open-loop reader sent late
	writes    []write
	lagMax    int
	publishes uint64
	flushes   samples // milliseconds per watcher Flush
}

// churn runs the open-loop writer at writeRate beside an open-loop HTTP
// reader at readRate for dur. The reader runs at a fixed rate
// rather than in a closed loop so that a faster read path does not raise
// the load the writes compete with. The writer alternately deletes and
// re-inserts pool triples, so the store is always either the original or
// the original minus one pool triple.
//
// A watcher follows the writer: after each write returns it calls Flush,
// which returns once every write made before the call is in published
// extents, and marks those writes fresh. Flush waits on a channel, so the
// watcher costs no polling.
func churn(d *deployment, p *prepared, c *http.Client, seed int64, dur time.Duration, tr *tracer) churnResult {
	var res churnResult
	interval := time.Second / writeRate
	n := int(dur / interval)
	res.writes = make([]write, n)
	done := make(chan int, n) // indexes of returned writes; never blocks the writer
	start := time.Now().Add(5 * time.Millisecond)
	pub0 := d.lv.PublishGen()

	go func() { // writer
		defer close(done)
		for k := range res.writes {
			w := &res.writes[k]
			w.del, w.pool = k%2 == 0, (k/2)%len(p.pool)
			w.due = start.Add(time.Duration(k) * interval)
			waitUntil(w.due)
			s := tr.begin("maintain.write", span{})
			w.start = time.Now()
			if w.del {
				_, w.err = d.lv.Delete(p.lines[w.pool])
			} else {
				_, w.err = d.lv.Insert(p.lines[w.pool])
			}
			w.end = time.Now()
			s.end()
			done <- k
		}
	}()

	watched := make(chan struct{})
	go func() { // watcher
		defer close(watched)
		fresh := 0 // writes [0, fresh) are marked
		for k := range done {
			for more := true; more; { // take every write returned so far
				select {
				case j, ok := <-done:
					if ok {
						k = j
					} else {
						more = false
					}
				default:
					more = false
				}
			}
			if deltas, _ := d.lv.Lag(); deltas > res.lagMax {
				res.lagMax = deltas
			}
			s := tr.begin("maintain.flush", span{})
			err := d.lv.Flush()
			flushed := s.end()
			now := time.Now()
			res.flushes = append(res.flushes, float64(flushed.Nanoseconds())/1e6)
			for ; fresh <= k; fresh++ {
				res.writes[fresh].fresh = now
				if err != nil && res.writes[fresh].err == nil {
					res.writes[fresh].err = fmt.Errorf("flush: %w", err)
				}
			}
		}
	}()

	res.reads, res.readLate = openLoop(c, p, seed+1, readRate, start, start.Add(dur))
	<-watched
	res.publishes = d.lv.PublishGen() - pub0
	return res
}
