package engine

import (
	"sync"

	"rdfviews/internal/dict"
)

// Batch-at-a-time execution protocol. Operators (vec*.go) pull fixed-capacity
// column batches: up to BatchSize rows stored as one flat []dict.ID per
// register slot, plus an optional selection vector of live row indexes.
// Filters narrow the selection vector without moving data; producers
// (scans, joins, sorts) emit dense batches with a nil selection.
//
// Ownership: the batch an operator returns is valid only until its next
// nextBatch call, so every serial operator reuses one owned output batch
// (zero allocations per batch in steady state). Batches that cross
// goroutines — the exchange operators — are leased from a shared batchPool
// instead and recycled by the consumer once it advances past them.

// BatchSize is the number of rows a vectorized operator processes per call.
// 1024 rows keeps a full-width batch of a typical 4-variable pipeline at
// 32 KiB — resident in L1/L2 while each operator's tight loop runs — and
// amortizes an operator-boundary call over a thousand rows.
const BatchSize = 1024

// batch is one unit of the vectorized dataflow: n rows across width columns,
// of which sel (when non-nil) selects the live subset, in order. Columns are
// always full BatchSize slices — rows at index ≥ n (or outside sel) are
// stale garbage — so operators index without reslicing.
type batch struct {
	cols   [][]dict.ID // one column per register slot, each of length BatchSize
	sel    []int32     // ascending live row indexes; nil = all of 0..n-1
	n      int
	selBuf []int32 // backing storage for sel, allocated on first filter
}

// batchFree recycles whole batches across plan executions, per width: a
// pipeline's owned batches are width*8 KiB each and a plan builds several, so
// without reuse every evaluation pays their allocation, zeroing and GC scan.
// Widths beyond the array bound (queries with >16 variables) fall back to
// plain allocation.
const batchFreeMaxWidth = 16

var batchFree [batchFreeMaxWidth + 1]sync.Pool

// newBatch returns an empty batch of the given width with BatchSize rows per
// column (one backing allocation for all columns), reusing a released batch
// of the same width when one is available.
func newBatch(width int) *batch {
	if width <= batchFreeMaxWidth {
		if v := batchFree[width].Get(); v != nil {
			b := v.(*batch)
			b.reset()
			return b
		}
	}
	flat := make([]dict.ID, width*BatchSize)
	b := &batch{cols: make([][]dict.ID, width)}
	for i := range b.cols {
		b.cols[i] = flat[i*BatchSize : (i+1)*BatchSize : (i+1)*BatchSize]
	}
	return b
}

// release hands the batch back for reuse by a later newBatch of the same
// width. The caller must hold no references into its columns afterwards.
func (b *batch) release() {
	if b == nil || len(b.cols) > batchFreeMaxWidth {
		return
	}
	batchFree[len(b.cols)].Put(b)
}

// reset empties the batch for refilling.
func (b *batch) reset() {
	b.n = 0
	b.sel = nil
}

// selStorage returns the batch's selection-vector backing array, allocating
// it on first use; the caller fills a prefix and assigns it to sel.
func (b *batch) selStorage() []int32 {
	if b.selBuf == nil {
		b.selBuf = make([]int32, BatchSize)
	}
	return b.selBuf
}

// live returns the number of selected rows.
func (b *batch) live() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// identitySel is the shared 0..BatchSize-1 selection: liveSel returns a
// prefix of it for dense batches, so consumers iterate one code path.
var identitySel = func() []int32 {
	s := make([]int32, BatchSize)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// liveSel returns the batch's live row indexes, ascending.
func (b *batch) liveSel() []int32 {
	if b.sel != nil {
		return b.sel
	}
	return identitySel[:b.n]
}

// batchPool recycles batches that cross goroutine boundaries: exchange
// workers lease output batches here and the consuming operator returns each
// one as it advances to the next, so steady-state parallel execution reuses
// ~2 batches per worker instead of allocating one per send. It is the
// batch-level extension of rowArena: same job (no per-unit allocations on the
// output path), one level of granularity up, and shared across goroutines.
type batchPool struct {
	width int
	mu    sync.Mutex
	free  []*batch
}

func newBatchPool(width int) *batchPool { return &batchPool{width: width} }

// get leases an empty batch of the pool's width.
func (p *batchPool) get() *batch {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		b.reset()
		return b
	}
	p.mu.Unlock()
	return newBatch(p.width)
}

// put returns a batch to the pool. The caller must hold no references into
// its columns afterwards.
func (p *batchPool) put(b *batch) {
	if b == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// releaseAll drains the pool's free list into the global batchFree pool; an
// exchange calls it on close so its leased batches outlive neither the
// execution nor the pool.
func (p *batchPool) releaseAll() {
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.mu.Unlock()
	for _, b := range free {
		b.release()
	}
}
