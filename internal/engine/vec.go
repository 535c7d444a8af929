package engine

import (
	"sort"
	"sync"

	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

// The store-side executor: pull-based physical operators over the triple
// store's permutation indexes, pulling column batches (batch.go). A batch
// holds one column per register slot — the planner's compact variable
// numbering — so the hot path touches no maps and hashes no strings.
//
// Operator set (chosen by the planner in planner.go):
//
//   - vecScanOp: an index scan of one permutation range, binding triple
//     positions into register columns;
//   - vecMergeJoinOp: joins a pipeline sorted on one register slot with an
//     atom cursor sorted on the matching triple position, buffering one
//     equal-key run of the right side at a time; further shared variables
//     are residual equality checks against each group triple;
//   - vecSortOp: materializes the pipeline and re-emits it ordered by one
//     register slot — the sort-break operator that makes merge joins
//     available again further down a chain;
//   - vecHashJoinOp: builds a hash table over the atom's matching triples and
//     probes it with the streaming left pipeline; with no key columns it
//     degrades to the Cartesian product a disconnected query requires;
//   - vecHashJoinBuildLeftOp: the flipped build side — the pipeline is
//     drained into the table and the atom's cursor streams through as the
//     probe;
//   - vecExchangeOp / vecGatherMergeOp (vec_parallel.go): the shard fan-out
//     of a driving scan over a sharded store.
//
// Scans amortize cursor decode over Cursor.NextBatch, repeated-variable
// checks compact a selection vector branch-free, and hash joins hash whole
// key columns and probe the idTable with one batched call. Projection and
// duplicate elimination happen at the drain site (QueryPlan.EvalWithOptions,
// EvalStream) against a rowSet.
//
// A returned batch is valid only until the next nextBatch call. Serial
// operators therefore reuse one owned output batch; only the exchange
// operators (vec_parallel.go) lease pool batches across goroutines.

// vop is a pull-based operator yielding column batches. Returned batches
// always have at least one live row; EOF is the false return.
type vop interface {
	// nextBatch returns the next batch; it is valid until the next call.
	nextBatch() (*batch, bool)
}

// closeVop releases the operator's batches and buffers back to their pools
// and stops any parallel workers below it; safe on operators without either.
func closeVop(v vop) {
	if c, ok := v.(interface{ close() }); ok {
		c.close()
	}
}

// trisFree recycles the BatchSize triple buffers that scans, builds and the
// merge join's inner cursor decode into.
var trisFree sync.Pool

func getTris() []store.Triple {
	if v := trisFree.Get(); v != nil {
		return v.([]store.Triple)
	}
	return make([]store.Triple, BatchSize)
}

func putTris(t []store.Triple) {
	if t != nil {
		//lint:ignore SA6002 one boxing alloc per op close is cheaper than a wrapper type
		trisFree.Put(t)
	}
}

// triCursor pulls triples one at a time through a batched decode buffer:
// group-building consumers keep their row-at-a-time control flow while the
// cursor pays one NextBatch call per buffer instead of a call chain per
// triple.
type triCursor struct {
	cur  store.Cursor
	buf  []store.Triple
	i, n int
	lim  int // fill limit: ramps up per refill, resets small after a seek
}

// triCursorRamp is the first refill size. A merge consumer often needs only
// one key group per probe — decoding the full buffer up front would cost a
// thousand-triple gather to read a handful — so fills start small and double,
// converging on full-buffer decodes for genuinely long streams.
const triCursorRamp = 32

func (c *triCursor) next() (store.Triple, bool) {
	if c.i >= c.n {
		if c.lim < triCursorRamp {
			c.lim = triCursorRamp
		}
		if c.lim > len(c.buf) {
			c.lim = len(c.buf)
		}
		c.n = c.cur.NextBatch(c.buf[:c.lim])
		c.lim *= 2
		c.i = 0
		if c.n == 0 {
			return store.Triple{}, false
		}
	}
	t := c.buf[c.i]
	c.i++
	return t, true
}

// seekGE positions the cursor so the next call to next returns the first
// remaining triple with t[col] >= key. The buffered batch is sorted on col
// (it streams in cursor order), so a target inside it is a binary search;
// otherwise the buffer is discarded and the skip delegates to the store
// cursor's index seek.
func (c *triCursor) seekGE(col int, key dict.ID) {
	if c.i < c.n && c.buf[c.n-1][col] >= key {
		rest := c.buf[c.i:c.n]
		c.i += sort.Search(len(rest), func(j int) bool { return rest[j][col] >= key })
		return
	}
	c.i, c.n = 0, 0
	c.lim = 0 // next fill starts small: a seek usually lands on one group
	c.cur.SeekGE(col, key)
}

// bindBatch writes len(tris) decoded triples into the batch's bound columns
// and applies the spec's repeated-variable checks by compacting a selection
// vector (branch-free: the index is stored unconditionally, the cursor
// advances on pass). The batch comes out dense when the spec has no checks.
func bindBatch(b *batch, spec *atomSpec, tris []store.Triple) {
	b.n = len(tris)
	b.sel = nil
	for _, bd := range spec.binds {
		col := b.cols[bd.slot]
		pos := bd.pos
		for i, t := range tris {
			col[i] = t[pos]
		}
	}
	for ci, c := range spec.checks {
		c0, c1 := c[0], c[1]
		if ci == 0 {
			sel := b.selStorage()
			k := 0
			for i, t := range tris {
				sel[k] = int32(i)
				if t[c0] == t[c1] {
					k++
				}
			}
			b.sel = sel[:k]
			continue
		}
		sel := b.sel
		k := 0
		for _, i := range sel {
			sel[k] = i
			if tris[i][c0] == tris[i][c1] {
				k++
			}
		}
		b.sel = sel[:k]
	}
}

// vecScanOp streams one permutation range as column batches: the cursor
// decodes up to BatchSize triples per call (a flat gather on the common
// clean-snapshot path) and the triple positions scatter into columns.
type vecScanOp struct {
	st    store.Reader
	spec  *atomSpec
	width int
	intr  *interrupt

	started bool
	cur     store.Cursor
	tris    []store.Triple
	out     *batch
}

// close returns the scan's buffers to their pools.
func (s *vecScanOp) close() {
	s.out.release()
	putTris(s.tris)
	s.out, s.tris = nil, nil
}

func (s *vecScanOp) nextBatch() (*batch, bool) {
	if !s.started {
		s.started = true
		s.cur = s.st.NewCursor(s.spec.perm, s.spec.pat)
		s.tris = getTris()
		s.out = newBatch(s.width)
	}
	for {
		if s.intr.stop() { // cancellation checkpoint: once per decoded batch
			return nil, false
		}
		n := s.cur.NextBatch(s.tris)
		if n == 0 {
			return nil, false
		}
		bindBatch(s.out, s.spec, s.tris[:n])
		if s.out.live() > 0 {
			return s.out, true
		}
	}
}

// vecMergeJoinOp merge-joins a left pipeline sorted on register slot slot
// with the atom's cursor sorted on triple position rpos (the planner picks a
// permutation that lists the atom's constants, then rpos). One equal-key run
// of right triples is buffered per key, so duplicate keys on either side
// produce the full cross-combination. Repeated-variable checks are applied
// once while buffering the group. When the atom shares more than one
// variable with the pipeline, the remaining shared variables
// (extraSlots/extraPos) are residual equality checks per output row against
// the left batch — the multi-key generalization that keeps merge joins
// available for star and cycle shapes.
// Emission carries resume state (gi) so a left-row × group cross product can
// span output batches.
type vecMergeJoinOp struct {
	left       vop
	st         store.Reader
	spec       *atomSpec
	slot       int   // join variable's register slot (left side, sorted)
	rpos       int   // join variable's triple position (right side, sorted)
	extraSlots []int // residual shared variables: register slots ...
	extraPos   []int // ... and the matching triple positions
	leftSlots  []int // slots bound by the pipeline below, copied per output row
	width      int

	started  bool
	cur      triCursor
	curT     store.Triple
	curOK    bool
	group    []store.Triple
	groupKey dict.ID
	haveGrp  bool

	lb       *batch
	lsel     []int32
	li       int   // next left row to consume, as an index into lsel
	lrow     int32 // current left row (batch row index) while emitting
	emitting bool
	gi       int
	out      *batch
}

// close returns the join's buffers to their pools and releases any
// parallel-scan workers feeding the pipeline below.
func (m *vecMergeJoinOp) close() {
	m.out.release()
	putTris(m.cur.buf)
	m.out, m.cur.buf = nil, nil
	closeVop(m.left)
}

func (m *vecMergeJoinOp) nextBatch() (*batch, bool) {
	if !m.started {
		m.started = true
		m.cur = triCursor{cur: m.st.NewCursor(m.spec.perm, m.spec.pat), buf: getTris()}
		m.curT, m.curOK = m.cur.next()
		m.out = newBatch(m.width)
	}
	out := m.out
	out.reset()
	for {
		if m.emitting {
			m.emitGroup(out)
			if out.n == BatchSize {
				return out, true
			}
		}
		if m.lb == nil || m.li >= len(m.lsel) {
			// The output batch holds copies, so the left batch can be
			// released by pulling its successor mid-fill.
			lb, ok := m.left.nextBatch()
			if !ok {
				m.lb = nil
				if out.n > 0 {
					return out, true
				}
				return nil, false
			}
			m.lb, m.lsel, m.li = lb, lb.liveSel(), 0
			continue
		}
		lrow := m.lsel[m.li]
		m.li++
		key := m.lb.cols[m.slot][lrow]
		if !m.haveGrp || key != m.groupKey {
			// Left keys are non-decreasing, so the right cursor only ever
			// moves forward. Small gaps advance linearly; anything larger
			// gallops via the cursor's index seek, so a selective left side
			// skips over the unmatched right runs instead of streaming them.
			const linearSkip = 16
			for n := 0; m.curOK && m.curT[m.rpos] < key; {
				if n++; n > linearSkip {
					m.cur.seekGE(m.rpos, key)
					m.curT, m.curOK = m.cur.next()
					break
				}
				m.curT, m.curOK = m.cur.next()
			}
			m.group = m.group[:0]
			for m.curOK && m.curT[m.rpos] == key {
				keep := true
				for _, c := range m.spec.checks {
					if m.curT[c[0]] != m.curT[c[1]] {
						keep = false
						break
					}
				}
				if keep {
					m.group = append(m.group, m.curT)
				}
				m.curT, m.curOK = m.cur.next()
			}
			m.groupKey, m.haveGrp = key, true
		}
		if len(m.group) == 0 {
			continue
		}
		m.lrow = lrow
		m.gi = 0
		m.emitting = true
	}
}

// emitGroup emits the current left row against the buffered group until the
// group or the output batch is exhausted; emitting clears when the group is
// done. Without residual checks the run is emitted column-at-a-time: the left
// values are constant across the run, so each left column is a fill and each
// bound column a gather — no per-row slot dispatch.
func (m *vecMergeJoinOp) emitGroup(out *batch) {
	cols := m.lb.cols
	lrow := int(m.lrow)
	if len(m.extraPos) == 0 {
		g := len(m.group) - m.gi
		if free := BatchSize - out.n; g > free {
			g = free
		}
		if g > 0 {
			run := m.group[m.gi : m.gi+g]
			for _, s := range m.leftSlots {
				dst := out.cols[s][out.n : out.n+g]
				v := cols[s][lrow]
				for i := range dst {
					dst[i] = v
				}
			}
			for _, bd := range m.spec.binds {
				dst := out.cols[bd.slot][out.n : out.n+g]
				for i, t := range run {
					dst[i] = t[bd.pos]
				}
			}
			m.gi += g
			out.n += g
		}
		m.emitting = m.gi < len(m.group)
		return
	}
	for m.gi < len(m.group) {
		if out.n == BatchSize {
			return
		}
		t := m.group[m.gi]
		m.gi++
		ok := true
		for i, p := range m.extraPos {
			if t[p] != cols[m.extraSlots[i]][lrow] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		k := out.n
		for _, s := range m.leftSlots {
			out.cols[s][k] = cols[s][lrow]
		}
		for _, bd := range m.spec.binds {
			out.cols[bd.slot][k] = t[bd.pos]
		}
		out.n = k + 1
	}
	m.emitting = false
}

// vecHashJoinOp builds the atom's matching triples into an idTable keyed by a
// 64-bit hash of the shared variables' positions (decoded batch-at-a-time,
// chained by triple index, verified by value), then probes each left batch
// columnar — key hashes computed column by column over the live rows, chain
// heads fetched with one getBatch call — and matches emit with resume state
// so a probe row's chain can span output batches. With no key columns every
// triple lands in one chain and the operator computes the Cartesian product.
type vecHashJoinOp struct {
	left      vop
	st        store.Reader
	spec      *atomSpec
	keySlots  []int // probe: register slots of the shared variables
	keyPos    []int // build: triple positions of the shared variables
	leftSlots []int // slots bound by the pipeline below, copied per output row
	width     int
	intr      *interrupt

	built  bool
	table  *idTable       // key hash -> chain head, as triple index + 1
	tris   []store.Triple // build-side triples passing the atom's checks
	chains []int32        // collision chain, same encoding as table

	lb       *batch
	lsel     []int32
	li       int
	lrow     int32
	chain    int32
	emitting bool
	hashes   []uint64
	heads    []int32
	matchBuf []int32 // verified chain matches, collected before columnar emit
	out      *batch
}

// close returns the join's output batch to the pool and releases any
// parallel-scan workers feeding the pipeline below.
func (j *vecHashJoinOp) close() {
	j.out.release()
	j.out = nil
	closeVop(j.left)
}

func (j *vecHashJoinOp) build() {
	cur := j.st.NewCursor(j.spec.perm, j.spec.pat)
	n := cur.Remaining()
	j.table = newIDTable(n)
	j.tris = make([]store.Triple, 0, n)
	j.chains = make([]int32, 0, n)
	buf := getTris()
	defer putTris(buf)
	for {
		if j.intr.stop() { // cancellation checkpoint: build drains the atom
			break
		}
		bn := cur.NextBatch(buf)
		if bn == 0 {
			break
		}
		for _, t := range buf[:bn] {
			keep := true
			for _, c := range j.spec.checks {
				if t[c[0]] != t[c[1]] {
					keep = false
					break
				}
			}
			if keep {
				h := hashIDs(t, j.keyPos)
				j.tris = append(j.tris, t)
				j.chains = append(j.chains, j.table.get(h))
				j.table.put(h, int32(len(j.tris)))
			}
		}
	}
	j.out = newBatch(j.width)
	j.built = true
}

// probeHash hashes the key columns of every live row of the batch and fetches
// all chain heads in one batched table probe.
func (j *vecHashJoinOp) probeHash(lb *batch) {
	sel := j.lsel
	// Scratch sizes track the largest probe batch seen (≤ BatchSize): a
	// selective point pipeline probes a handful of rows per batch and should
	// not pay for full-batch scratch.
	if cap(j.hashes) < len(sel) {
		j.hashes = make([]uint64, len(sel))
		j.heads = make([]int32, len(sel))
	}
	hashes := j.hashes[:len(sel)]
	for i := range hashes {
		hashes[i] = hashSeed
	}
	for _, s := range j.keySlots {
		col := lb.cols[s]
		for k, i := range sel {
			hashes[k] = hashMix(hashes[k], uint64(col[i]))
		}
	}
	j.table.getBatch(hashes, j.heads[:len(sel)])
}

func (j *vecHashJoinOp) nextBatch() (*batch, bool) {
	if !j.built {
		j.build()
		if len(j.tris) == 0 {
			return nil, false
		}
	}
	out := j.out
	out.reset()
	for {
		if j.emitting {
			j.emitChain(out)
			if out.n == BatchSize {
				return out, true
			}
		}
		if j.lb == nil || j.li >= len(j.lsel) {
			lb, ok := j.left.nextBatch()
			if !ok {
				j.lb = nil
				if out.n > 0 {
					return out, true
				}
				return nil, false
			}
			j.lb, j.lsel, j.li = lb, lb.liveSel(), 0
			j.probeHash(lb)
			continue
		}
		k := j.li
		j.li++
		if j.heads[k] == 0 {
			continue
		}
		j.lrow = j.lsel[k]
		j.chain = j.heads[k]
		j.emitting = true
	}
}

// emitChain walks the current probe row's collision chain in two phases:
// verified matches are first collected into a scratch index run, then emitted
// column-at-a-time — the probe row's values are constant across the run, so
// each left column is a fill and each bound column a gather. Emission stops
// when the chain or the output batch is exhausted.
func (j *vecHashJoinOp) emitChain(out *batch) {
	cols := j.lb.cols
	lrow := int(j.lrow)
	if j.matchBuf == nil {
		j.matchBuf = make([]int32, 0, 16)
	}
	free := BatchSize - out.n
	run := j.matchBuf[:0]
	for j.chain != 0 && len(run) < free {
		c := j.chain - 1
		t := &j.tris[c]
		j.chain = j.chains[c]
		match := true
		for i, p := range j.keyPos {
			if t[p] != cols[j.keySlots[i]][lrow] {
				match = false
				break
			}
		}
		if match {
			run = append(run, c)
		}
	}
	if g := len(run); g > 0 {
		for _, s := range j.leftSlots {
			dst := out.cols[s][out.n : out.n+g]
			v := cols[s][lrow]
			for i := range dst {
				dst[i] = v
			}
		}
		for _, bd := range j.spec.binds {
			dst := out.cols[bd.slot][out.n : out.n+g]
			for i, c := range run {
				dst[i] = j.tris[c][bd.pos]
			}
		}
		out.n += g
	}
	j.matchBuf = run[:0] // keep any growth for the next chain
	j.emitting = j.chain != 0
}

// vecHashJoinBuildLeftOp is the hash join with the build side flipped: the
// planner chooses it when the pipeline-so-far is estimated much smaller than
// the atom's extent. The left pipeline drains into the hash table (only the
// bound slots of each live row are gathered into arena rows) and the atom's
// cursor streams through as the probe — decoded batch-at-a-time, checks
// compacted into a probe selection, key hashes and chain heads computed for
// the whole probe batch up front. Output order follows the probe cursor's
// permutation, so the planner can pick the permutation's post-prefix column
// to establish a new sort order for downstream merges.
type vecHashJoinBuildLeftOp struct {
	left      vop
	st        store.Reader
	spec      *atomSpec
	keySlots  []int // build: register slots of the shared variables
	keyPos    []int // probe: triple positions of the shared variables
	leftSlots []int // slots bound by the pipeline below (build rows' live slots)
	width     int
	intr      *interrupt

	built  bool
	table  *idTable // key hash -> chain head, as build row index + 1
	brows  []Row    // build-side pipeline rows (gathered copies)
	chains []int32  // collision chain, same encoding as table

	cur      store.Cursor
	tris     []store.Triple
	psel     []int32 // probe triples passing the atom's checks
	pselBuf  []int32
	ti       int // next probe entry, as an index into psel
	curT     store.Triple
	chain    int32
	emitting bool
	hashes   []uint64
	heads    []int32
	out      *batch
}

// close returns the join's buffers to their pools and releases any
// parallel-scan workers feeding the pipeline below.
func (j *vecHashJoinBuildLeftOp) close() {
	j.out.release()
	putTris(j.tris)
	j.out, j.tris = nil, nil
	closeVop(j.left)
}

func (j *vecHashJoinBuildLeftOp) build() {
	j.table = newIDTable(64)
	var arena rowArena
	for {
		lb, ok := j.left.nextBatch()
		if !ok {
			break
		}
		for _, i := range lb.liveSel() {
			row := arena.alloc(j.width)
			for _, s := range j.leftSlots {
				row[s] = lb.cols[s][i]
			}
			h := hashValues(row, j.keySlots)
			j.brows = append(j.brows, row)
			j.chains = append(j.chains, j.table.get(h))
			j.table.put(h, int32(len(j.brows)))
		}
	}
	j.built = true
}

func (j *vecHashJoinBuildLeftOp) nextBatch() (*batch, bool) {
	if !j.built {
		j.build()
		if len(j.brows) == 0 {
			return nil, false
		}
		j.cur = j.st.NewCursor(j.spec.perm, j.spec.pat)
		j.tris = getTris()
		j.out = newBatch(j.width)
	}
	out := j.out
	out.reset()
	for {
		if j.emitting {
			j.emitChain(out)
			if out.n == BatchSize {
				return out, true
			}
		}
		if j.ti >= len(j.psel) {
			// Cancellation checkpoint: the probe streams the atom's cursor.
			if j.intr.stop() {
				return nil, false
			}
			n := j.cur.NextBatch(j.tris)
			if n == 0 {
				if out.n > 0 {
					return out, true
				}
				return nil, false
			}
			j.probeHash(n)
			continue
		}
		k := j.ti
		j.ti++
		if j.heads[k] == 0 {
			continue
		}
		j.curT = j.tris[j.psel[k]]
		j.chain = j.heads[k]
		j.emitting = true
	}
}

// probeHash compacts the freshly decoded probe triples through the atom's
// checks, hashes their key positions and fetches all chain heads at once.
func (j *vecHashJoinBuildLeftOp) probeHash(n int) {
	// Scratch sizes track the largest probe batch seen (≤ BatchSize), so a
	// short probe stream does not pay for full-batch scratch.
	if cap(j.pselBuf) < n {
		j.pselBuf = make([]int32, n)
		j.hashes = make([]uint64, n)
		j.heads = make([]int32, n)
	}
	sel := j.pselBuf[:n]
	k := 0
	if len(j.spec.checks) == 0 {
		for i := 0; i < n; i++ {
			sel[i] = int32(i)
		}
		k = n
	} else {
		for i := 0; i < n; i++ {
			keep := true
			for _, c := range j.spec.checks {
				if j.tris[i][c[0]] != j.tris[i][c[1]] {
					keep = false
					break
				}
			}
			sel[k] = int32(i)
			if keep {
				k++
			}
		}
	}
	j.psel = sel[:k]
	hashes := j.hashes[:k]
	for x := range hashes {
		hashes[x] = hashSeed
	}
	for _, p := range j.keyPos {
		for x, i := range j.psel {
			hashes[x] = hashMix(hashes[x], uint64(j.tris[i][p]))
		}
	}
	j.table.getBatch(hashes, j.heads[:k])
	j.ti = 0
}

// emitChain walks the current probe triple's collision chain, emitting
// verified matches until the chain or the output batch is exhausted.
func (j *vecHashJoinBuildLeftOp) emitChain(out *batch) {
	t := j.curT
	for j.chain != 0 {
		if out.n == BatchSize {
			return
		}
		r := j.brows[j.chain-1]
		j.chain = j.chains[j.chain-1]
		match := true
		for i, p := range j.keyPos {
			if t[p] != r[j.keySlots[i]] {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		k := out.n
		for _, s := range j.leftSlots {
			out.cols[s][k] = r[s]
		}
		for _, bd := range j.spec.binds {
			out.cols[bd.slot][k] = t[bd.pos]
		}
		out.n = k + 1
	}
	j.emitting = false
}

// vecSortOp is the explicit Sort physical operator. The planner inserts it
// at a "sort break" — the point in a left-deep pipeline where the next atom
// shares variables with the rows produced so far but none of them is the
// slot the pipeline is currently sorted on — so that a merge join against the
// atom's already-sorted permutation cursor becomes available again. The
// input's live rows are gathered into per-slot materialized columns (only the
// slots bound so far), a permutation of row indexes is sorted on the key
// slot, and output batches gather through the permutation — columnar both
// ways, with no per-row Row allocation. Downstream operators depend solely on
// the slot being non-decreasing.
type vecSortOp struct {
	in    vop
	slot  int   // register slot the output is ordered by
	slots []int // slots bound by the pipeline below; the only ones materialized
	width int

	started bool
	data    [][]dict.ID // indexed by register slot; nil when not materialized
	perm    []int32
	pos     int
	out     *batch
}

// close returns the sort's output batch to the pool and releases any
// parallel-scan workers feeding the pipeline below.
func (s *vecSortOp) close() {
	s.out.release()
	s.out = nil
	closeVop(s.in)
}

func (s *vecSortOp) nextBatch() (*batch, bool) {
	if !s.started {
		s.started = true
		s.data = make([][]dict.ID, s.width)
		for {
			b, ok := s.in.nextBatch()
			if !ok {
				break
			}
			sel := b.liveSel()
			for _, sl := range s.slots {
				col := b.cols[sl]
				d := s.data[sl]
				for _, i := range sel {
					d = append(d, col[i])
				}
				s.data[sl] = d
			}
		}
		key := s.data[s.slot]
		s.perm = make([]int32, len(key))
		for i := range s.perm {
			s.perm[i] = int32(i)
		}
		sort.Slice(s.perm, func(i, j int) bool { return key[s.perm[i]] < key[s.perm[j]] })
		s.out = newBatch(s.width)
	}
	if s.pos >= len(s.perm) {
		return nil, false
	}
	n := len(s.perm) - s.pos
	if n > BatchSize {
		n = BatchSize
	}
	out := s.out
	out.reset()
	perm := s.perm[s.pos : s.pos+n]
	for _, sl := range s.slots {
		col := out.cols[sl]
		d := s.data[sl]
		for k, p := range perm {
			col[k] = d[p]
		}
	}
	out.n = n
	s.pos += n
	return out, true
}

// buildVecOps instantiates the operator pipeline. Operators are single-use:
// each Eval call builds a fresh pipeline. bound tracks
// the register slots the pipeline has bound so far: joins and sorts copy (or
// materialize) exactly those slots, leaving the rest of each batch stale.
// intr (nil for uncancellable executions) reaches the operators that loop
// without returning control: scans, exchanges and hash-join atom drains.
func (p *QueryPlan) buildVecOps(intr *interrupt) vop {
	var cur vop
	var bound []int
	for i := range p.steps {
		s := &p.steps[i]
		leftSlots := append([]int(nil), bound...)
		switch s.kind {
		case stepScan:
			route, par := p.scanRoute(s)
			switch {
			case par > 1 && s.parSlot >= 0:
				cur = &vecGatherMergeOp{st: p.st, spec: s.spec, width: p.width, route: route, dop: par, slot: s.parSlot, intr: intr}
			case par > 1:
				cur = &vecExchangeOp{st: p.st, spec: s.spec, width: p.width, route: route, dop: par, intr: intr}
			default:
				cur = &vecScanOp{st: p.st, spec: s.spec, width: p.width, intr: intr}
			}
		case stepSort:
			cur = &vecSortOp{in: cur, slot: s.joinSlot, slots: leftSlots, width: p.width}
		case stepMergeJoin:
			cur = &vecMergeJoinOp{left: cur, st: p.st, spec: s.spec, slot: s.joinSlot, rpos: s.rpos,
				extraSlots: s.extraSlots, extraPos: s.extraPos, leftSlots: leftSlots, width: p.width}
		case stepHashJoin:
			if s.buildLeft {
				cur = &vecHashJoinBuildLeftOp{left: cur, st: p.st, spec: s.spec,
					keySlots: s.keySlots, keyPos: s.keyPos, leftSlots: leftSlots, width: p.width, intr: intr}
				break
			}
			cur = &vecHashJoinOp{left: cur, st: p.st, spec: s.spec,
				keySlots: s.keySlots, keyPos: s.keyPos, leftSlots: leftSlots, width: p.width, intr: intr}
		default: // stepCross (a hash join with no key columns)
			cur = &vecHashJoinOp{left: cur, st: p.st, spec: s.spec,
				keySlots: s.keySlots, keyPos: s.keyPos, leftSlots: leftSlots, width: p.width, intr: intr}
		}
		if s.spec != nil {
			for _, bd := range s.spec.binds {
				if !containsInt(bound, bd.slot) {
					bound = append(bound, bd.slot)
				}
			}
		}
	}
	return cur
}
