package engine

import (
	"sync"

	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

// Exchange-style parallel scans: when the store is sharded, the planner
// replaces the driving index scan of a pipeline with a fan-out that opens one
// shard-local cursor per partition on its own goroutine. Two gather shapes
// exist, mirroring classic exchange operators:
//
//   - vecExchangeOp collects batches from all workers over one channel in
//     arrival order — used when nothing downstream depends on the scan's
//     sort order (hash joins, plain projection);
//   - vecGatherMergeOp keeps one channel per worker and merges their streams
//     on the pipeline's sort slot. Each shard cursor emits in permutation
//     order, so the merge restores the global order a downstream merge join
//     requires.
//
// Shard workers decode and bind whole column batches and hand each one over
// the channel in a single send; the batches are leased from a shared
// batchPool and recycled by the consumer as it advances, so steady-state
// parallel scans allocate nothing per batch. Workers run to completion when
// the pipeline is drained; close() (deferred by every drain) releases them
// early if the pipeline is abandoned.

// vecScanShard streams one routed shard's matching triples as pooled column
// batches: worker k of a fan-out opens the route's k-th shard. It returns
// early when done closes or intr fires (the cancellation checkpoint also
// covers batches a send would never flush: fully-filtered ones). Batches
// with no surviving rows (all dropped by repeated-variable checks) are
// recycled, never sent, preserving the vop contract that delivered batches are
// non-empty.
func vecScanShard(st store.Reader, route store.Route, k int, spec *atomSpec, pool *batchPool, out chan<- *batch, done <-chan struct{}, intr *interrupt) {
	cur := st.RouteShardCursor(route, k, spec.perm, spec.pat)
	tris := getTris()
	defer putTris(tris)
	for {
		if intr.stop() {
			return
		}
		n := cur.NextBatch(tris)
		if n == 0 {
			return
		}
		b := pool.get()
		bindBatch(b, spec, tris[:n])
		if b.live() == 0 {
			pool.put(b)
			continue
		}
		select {
		case out <- b:
		case <-done:
			pool.put(b)
			return
		}
	}
}

// vecExchangeOp is the unordered parallel scan over batches: dop workers, one
// per shard, all feeding a single channel; batches surface in whatever order
// shards produce them and are returned to the pool when the consumer
// advances.
type vecExchangeOp struct {
	st    store.Reader
	spec  *atomSpec
	width int
	route store.Route // placement route the workers fan out over
	dop   int
	intr  *interrupt

	started bool
	closed  bool
	done    chan struct{}
	ch      chan *batch
	pool    *batchPool
	cur     *batch // the batch currently on loan to the consumer
}

func (e *vecExchangeOp) start() {
	e.done = make(chan struct{})
	e.ch = make(chan *batch, e.dop)
	e.pool = newBatchPool(e.width)
	var wg sync.WaitGroup
	for s := 0; s < e.dop; s++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			vecScanShard(e.st, e.route, k, e.spec, e.pool, e.ch, e.done, e.intr)
		}(s)
	}
	go func() {
		wg.Wait()
		close(e.ch)
	}()
	e.started = true
}

func (e *vecExchangeOp) nextBatch() (*batch, bool) {
	if !e.started {
		e.start()
	}
	// Consumer-side checkpoint: workers may have exited with their whole
	// output buffered in the channel; close() recycles those batches.
	if e.intr.stop() {
		return nil, false
	}
	if e.cur != nil {
		e.pool.put(e.cur)
		e.cur = nil
	}
	b, ok := <-e.ch
	if !ok {
		return nil, false
	}
	e.cur = b
	return b, true
}

func (e *vecExchangeOp) close() {
	if !e.started || e.closed {
		return
	}
	e.closed = true
	close(e.done)
	for b := range e.ch { // unblock any worker parked on send
		b.release()
	}
	if e.cur != nil {
		e.cur.release()
		e.cur = nil
	}
	e.pool.releaseAll()
}

// vecShardStream is one worker's batch stream with its merge position.
type vecShardStream struct {
	ch  chan *batch
	b   *batch
	sel []int32
	i   int
	eof bool
}

// refill ensures the stream's current batch has an unconsumed row, returning
// the previous batch to the pool as it advances; false means exhausted.
func (s *vecShardStream) refill(pool *batchPool) bool {
	for !s.eof && (s.b == nil || s.i >= len(s.sel)) {
		if s.b != nil {
			pool.put(s.b)
			s.b = nil
		}
		b, ok := <-s.ch
		if !ok {
			s.eof = true
			break
		}
		s.b, s.sel, s.i = b, b.liveSel(), 0
	}
	return !s.eof
}

// vecGatherMergeOp is the ordered parallel scan over batches: one channel per
// shard worker, merged row-by-row on the register slot the pipeline is sorted
// on into a dense output batch the operator owns. The merge itself stays
// per-row (it must interleave streams), but decode, binding and channel
// handoff are all batch-amortized.
type vecGatherMergeOp struct {
	st    store.Reader
	spec  *atomSpec
	width int
	route store.Route // placement route the workers fan out over
	dop   int
	slot  int // register slot the streams are merged on
	intr  *interrupt

	started   bool
	closed    bool
	done      chan struct{}
	pool      *batchPool
	streams   []vecShardStream
	live      []int // indexes of streams not yet exhausted
	scanSlots []int // register slots the scan binds (the only live columns)
	out       *batch
}

func (g *vecGatherMergeOp) start() {
	g.done = make(chan struct{})
	g.pool = newBatchPool(g.width)
	g.streams = make([]vecShardStream, g.dop)
	g.live = make([]int, g.dop)
	for _, bd := range g.spec.binds {
		g.scanSlots = append(g.scanSlots, bd.slot)
	}
	for s := 0; s < g.dop; s++ {
		g.live[s] = s
		ch := make(chan *batch, 2)
		g.streams[s].ch = ch
		go func(k int, out chan *batch) {
			defer close(out)
			vecScanShard(g.st, g.route, k, g.spec, g.pool, out, g.done, g.intr)
		}(s, ch)
	}
	g.out = newBatch(g.width)
	g.started = true
}

func (g *vecGatherMergeOp) nextBatch() (*batch, bool) {
	if !g.started {
		g.start()
	}
	// Consumer-side checkpoint: a small scan fits each shard's output in the
	// channel buffers, so the workers' own polls can all predate the cancel;
	// the merge must stop delivering what they left behind.
	if g.intr.stop() {
		return nil, false
	}
	out := g.out
	out.reset()
	for out.n < BatchSize {
		// Only live streams are consulted: a stream that reports EOF is
		// swap-removed from the live set, so a wide fan-out whose shards
		// drain at different rates stops re-polling exhausted heads.
		best := -1
		var bestKey dict.ID
		for k := 0; k < len(g.live); {
			i := g.live[k]
			s := &g.streams[i]
			if !s.refill(g.pool) {
				last := len(g.live) - 1
				g.live[k] = g.live[last]
				g.live = g.live[:last]
				continue
			}
			if key := s.b.cols[g.slot][s.sel[s.i]]; best < 0 || key < bestKey {
				best, bestKey = i, key
			}
			k++
		}
		if best < 0 {
			break
		}
		s := &g.streams[best]
		row := int(s.sel[s.i])
		s.i++
		k := out.n
		for _, sl := range g.scanSlots {
			out.cols[sl][k] = s.b.cols[sl][row]
		}
		out.n = k + 1
	}
	if out.n == 0 {
		return nil, false
	}
	return out, true
}

func (g *vecGatherMergeOp) close() {
	if !g.started || g.closed {
		return
	}
	g.closed = true
	close(g.done)
	for i := range g.streams {
		for b := range g.streams[i].ch {
			b.release()
		}
		if g.streams[i].b != nil {
			g.streams[i].b.release()
			g.streams[i].b = nil
		}
	}
	g.out.release()
	g.out = nil
	g.pool.releaseAll()
}
