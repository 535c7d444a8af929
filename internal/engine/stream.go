package engine

import (
	"fmt"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// Streaming drains for both execution tiers: instead of materializing a
// Relation, the pipeline is pulled one batch at a time and each batch is
// handed to the consumer as a row slab. This is the serving tier's
// backpressure path — an HTTP response encodes each slab and blocks on the
// client's socket before the next batch is pulled, so a slow reader holds
// O(batch) engine state, not O(result). The streams honor
// ExecOptions.Ctx like the materializing drains: a canceled context stops the
// pipeline at its next checkpoint and Next surfaces ctx.Err().

// RowStream is a pulled sequence of row slabs from a running pipeline.
// Next returns slabs of at least one row; unless the stream says otherwise,
// a slab (and its rows) is valid only until the next Next call. Close
// releases the pipeline's operators and workers and is required on every
// stream, drained or not.
type RowStream struct {
	streamCols []cq.Term
	pull       func() ([]Row, error) // nil slab = EOF
	stop       func()
	done       bool
	err        error
}

// Cols returns the stream's column labels.
func (s *RowStream) Cols() []cq.Term { return s.streamCols }

// Next returns the next slab of rows, nil at end of stream, or the error
// that terminated the stream (a canceled ExecOptions.Ctx surfaces here as
// ctx.Err()). After EOF or an error every further call returns the same.
func (s *RowStream) Next() ([]Row, error) {
	if s.done {
		return nil, s.err
	}
	rows, err := s.pull()
	if err != nil {
		s.done, s.err = true, err
		s.Close()
		return nil, err
	}
	if rows == nil {
		s.done = true
		s.Close()
		return nil, nil
	}
	return rows, nil
}

// Close releases the stream's pipeline (batch buffers, parallel workers).
// It is idempotent and safe after EOF.
func (s *RowStream) Close() {
	if s.stop != nil {
		s.stop()
		s.stop = nil
	}
}

// slabBuf is the reusable row-slab buffer streaming drains transpose batches
// into: one flat backing array, re-sliced into rows per fill.
type slabBuf struct {
	rows []Row
	back []dict.ID
	w    int
}

func newSlabBuf(w int) *slabBuf {
	return &slabBuf{rows: make([]Row, 0, BatchSize), back: make([]dict.ID, BatchSize*w), w: w}
}

// reset readies the buffer for a new slab.
func (sb *slabBuf) reset() { sb.rows = sb.rows[:0] }

// next returns the next uninitialized row of the slab.
func (sb *slabBuf) next() Row {
	i := len(sb.rows) * sb.w
	row := sb.back[i : i+sb.w : i+sb.w]
	sb.rows = append(sb.rows, row)
	return row
}

// EvalStream runs the store-side pipeline and streams its head tuples instead
// of materializing them. Distinct plans keep their dedup set across slabs —
// the set holds each kept row once, which is inherent to distinct — while
// non-distinct plans hold only the current slab. The stream's rows are valid
// until the next Next.
func (p *QueryPlan) EvalStream(opts ExecOptions) *RowStream {
	opts.intr = newInterrupt(opts.Ctx)
	root := p.buildVecOps(opts.intr)
	var seen *rowSet
	if p.distinct {
		hint := 64
		if len(p.steps) > 0 {
			hint = distinctSizeHint(p.steps[0].est)
		}
		seen = newRowSet(hint)
	}
	w := len(p.head)
	slab := newSlabBuf(w)
	scratch := make(Row, w)
	hdst := make([]int, 0, w)
	for c, s := range p.headSlots {
		if s < 0 {
			scratch[c] = p.headConsts[c]
		} else {
			hdst = append(hdst, c)
		}
	}
	hcols := make([][]dict.ID, 0, len(hdst))
	pull := func() ([]Row, error) {
		for {
			b, ok := root.nextBatch()
			if !ok {
				return nil, opts.ctxErr()
			}
			slab.reset()
			hcols = hcols[:0]
			for _, c := range hdst {
				hcols = append(hcols, b.cols[p.headSlots[c]])
			}
			for _, i := range b.liveSel() {
				for k, c := range hdst {
					scratch[c] = hcols[k][i]
				}
				if seen == nil {
					copy(slab.next(), scratch)
				} else if kept, added := seen.addCopy(scratch); added {
					// Kept rows live in the dedup set's arena, so the slab can
					// reference them directly; they stay valid across Next calls.
					slab.rows = append(slab.rows, kept)
				}
			}
			if len(slab.rows) > 0 {
				return slab.rows, nil
			}
			// A batch whose rows were all duplicates yields nothing; pull on.
		}
	}
	return &RowStream{streamCols: append([]cq.Term(nil), p.head...), pull: pull,
		stop: func() { closeVop(root) }}
}

// ExecuteStream runs a rewriting plan over materialized views and streams the
// result, the streaming counterpart of ExecuteWithOptions. Deduplication
// happens inside the pipeline's projection/union roots exactly as in the
// materializing drain; the stream transposes each surviving batch into a
// reused slab, so it holds O(batch) beyond the operators' own state.
func ExecuteStream(p algebra.Plan, resolve ViewResolver, opts ExecOptions) (*RowStream, error) {
	opts.intr = newInterrupt(opts.Ctx)
	root, _, err := compileVecRel(p, resolve, opts)
	if err != nil {
		return nil, err
	}
	w := len(root.cols())
	slab := newSlabBuf(w)
	pull := func() ([]Row, error) {
		b, ok := root.nextBatch()
		if !ok {
			return nil, opts.ctxErr()
		}
		slab.reset()
		for _, i := range b.liveSel() {
			row := slab.next()
			for c := 0; c < w; c++ {
				row[c] = b.cols[c][i]
			}
		}
		return slab.rows, nil
	}
	return &RowStream{streamCols: append([]cq.Term(nil), root.cols()...), pull: pull,
		stop: func() { closeVop(root) }}, nil
}

// UnionStreams streams the set union of its member streams, deduplicating
// across members (the streaming counterpart of the multi-member template
// union in the serving tier). Kept rows are copied into the dedup set's
// arena, so the union's slabs stay valid across Next calls. Closing the
// union closes every member.
func UnionStreams(streams []*RowStream, sizeHint int) (*RowStream, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("engine: empty stream union")
	}
	w := len(streams[0].Cols())
	for _, s := range streams[1:] {
		if len(s.Cols()) != w {
			return nil, fmt.Errorf("engine: stream union arity mismatch: %d vs %d", len(s.Cols()), w)
		}
	}
	seen := newRowSet(sizeHint)
	si := 0
	out := make([]Row, 0, BatchSize)
	pull := func() ([]Row, error) {
		for si < len(streams) {
			rows, err := streams[si].Next()
			if err != nil {
				return nil, err
			}
			if rows == nil {
				si++
				continue
			}
			out = out[:0]
			for _, row := range rows {
				if kept, added := seen.addCopy(row); added {
					out = append(out, kept)
				}
			}
			if len(out) > 0 {
				return out, nil
			}
		}
		return nil, nil
	}
	stop := func() {
		for _, s := range streams {
			s.Close()
		}
	}
	return &RowStream{streamCols: streams[0].Cols(), pull: pull, stop: stop}, nil
}

// ProjectStream reorders a stream's columns onto the given labels; constant
// labels project as constant columns. Unlike Relation.Project it does not
// re-deduplicate: it is meant for permutations of an already-distinct
// stream's full column set (the serving tier's view-route case, where the
// cached statement's head is a relabeling of the plan's head), which cannot
// introduce duplicates.
func ProjectStream(in *RowStream, cols []cq.Term) (*RowStream, error) {
	inCols := in.Cols()
	idx := make([]int, len(cols))
	for i, c := range cols {
		if c.IsConst() {
			idx[i] = -1
			continue
		}
		idx[i] = termIndex(inCols, c)
		if idx[i] < 0 {
			return nil, fmt.Errorf("engine: projection column %v not in %v", c, inCols)
		}
	}
	slab := newSlabBuf(len(cols))
	pull := func() ([]Row, error) {
		rows, err := in.Next()
		if err != nil || rows == nil {
			return nil, err
		}
		slab.reset()
		for _, row := range rows {
			nr := slab.next()
			for i, j := range idx {
				if j < 0 {
					nr[i] = cols[i].ConstID()
				} else {
					nr[i] = row[j]
				}
			}
		}
		return slab.rows, nil
	}
	return &RowStream{streamCols: append([]cq.Term(nil), cols...), pull: pull, stop: in.Close}, nil
}
