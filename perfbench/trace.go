package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []spanRecord
}

type spanRecord struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// span is an open span. Its zero value is a valid root parent.
type span struct {
	t     *tracer
	id    int64
	par   int64
	req   int64
	name  string
	start time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent; a root span (zero parent) starts a new
// request id that its descendants share.
func (t *tracer) begin(name string, parent span) span {
	s := span{t: t, name: name, start: time.Now(), par: parent.id, req: parent.req}
	if t != nil {
		s.id = t.nextID.Add(1)
		if s.req == 0 {
			s.req = s.id
		}
	}
	return s
}

// end closes the span and returns its duration, traced or not.
func (s span) end() time.Duration {
	now := time.Now()
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, spanRecord{
			ID: s.id, Parent: s.par, Request: s.req, Name: s.name,
			StartNs: s.start.Sub(s.t.t0).Nanoseconds(), EndNs: now.Sub(s.t.t0).Nanoseconds(),
		})
		s.t.mu.Unlock()
	}
	return now.Sub(s.start)
}

// selfTimes returns, per span name, the mean self time in microseconds: a
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]spanRecord{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sum := map[string]float64{}
	n := map[string]int{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		sum[s.Name] += float64(s.EndNs-s.StartNs-covered) / 1e3
		n[s.Name]++
	}
	for k := range sum {
		sum[k] /= float64(n[k])
	}
	return sum
}

// write dumps the spans as JSON lines and returns the file's path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// samples is a set of exact measurements in one unit.
type samples []float64

// quantile returns the nearest-rank q-quantile.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[min(max(i, 0), len(c)-1)]
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}

// describe summarizes s for a record line, with the number of samples
// beyond the p99: a percentile needs at least ten to be resolved.
func (s samples) describe() string {
	return fmt.Sprintf("n=%d p50=%.4g p99=%.4g max=%.4g beyond_p99=%d", len(s), s.quantile(0.5), s.quantile(0.99), s.quantile(1), len(s)-int(math.Ceil(0.99*float64(len(s)))))
}
