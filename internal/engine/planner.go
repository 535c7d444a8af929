package engine

import (
	"fmt"
	"math"
	"strings"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cost"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

// Cards supplies atom cardinality estimates for join ordering and physical
// operator selection. cost.Stats — and thus the statistics providers of the
// view-selection search — satisfies it, so the planner consumes the same
// cardinality lookups the cost model does.
type Cards interface {
	AtomCount(a cq.Atom) float64
}

var _ Cards = (cost.Stats)(nil)

// storeCards answers exact counts from the store's permutation indexes.
type storeCards struct{ st store.Reader }

// repeatedVarScanLimit bounds the exact fallback count for repeated-variable
// atoms like t(X, p, X): at or below it the pattern is scanned and the
// equality checks applied (exact), above it a √n-distinct discount
// approximates each check. Variable so tests can force either path.
var repeatedVarScanLimit = 4096.0

func (c storeCards) AtomCount(a cq.Atom) float64 {
	var pat store.Pattern
	var checks [][2]int
	first := make(map[cq.Term]int, 3)
	for i := 0; i < 3; i++ {
		t := a[i]
		if t.IsConst() {
			pat[i] = t.ConstID()
			continue
		}
		if fp, ok := first[t]; ok {
			checks = append(checks, [2]int{fp, i})
		} else {
			first[t] = i
		}
	}
	n := float64(c.st.Count(pat))
	if len(checks) == 0 || n == 0 {
		// No repeated variables: the pattern count is the atom count.
		return n
	}
	if n <= repeatedVarScanLimit {
		// Small enough to count exactly: scan the pattern and keep only the
		// triples passing the repeated-variable equalities.
		var bound []int
		for i := 0; i < 3; i++ {
			if pat[i] != store.Wildcard {
				bound = append(bound, i)
			}
		}
		perm, _ := store.PermFor(bound, -1)
		cur := c.st.NewCursor(perm, pat)
		m := 0
		//lint:ignore cancelcheck bounded: plan-time count capped at repeatedVarScanLimit rows
		for {
			t, ok := cur.Next()
			if !ok {
				break
			}
			keep := true
			for _, ch := range checks {
				if t[ch[0]] != t[ch[1]] {
					keep = false
					break
				}
			}
			if keep {
				m++
			}
		}
		return float64(m)
	}
	// Too large to scan at plan time: each equality keeps about one row per
	// distinct value of the repeated column, and with no distinct-count
	// statistic on the Reader surface we assume √n distinct values — so every
	// check shrinks the estimate to its square root.
	for range checks {
		n = math.Sqrt(n)
	}
	return n
}

// stepKind is the physical operator of one pipeline step.
type stepKind int

const (
	stepScan stepKind = iota
	stepMergeJoin
	stepHashJoin
	stepCross
	stepSort
)

// planStep is one compiled step of the left-deep pipeline: the first step is
// an index scan, a stepSort re-orders the pipeline-so-far on one register
// slot, and every other step joins the pipeline with one more atom.
type planStep struct {
	kind stepKind
	spec *atomSpec // nil for stepSort

	joinSlot   int   // merge join: sorted slot joined on; sort: slot sorted on
	rpos       int   // merge join: the right triple position joined on
	extraSlots []int // merge join: residual shared-variable register slots
	extraPos   []int // merge join: matching triple positions
	keySlots   []int // hash join: register slots of the shared variables
	keyPos     []int // hash join: matching triple positions
	buildLeft  bool  // hash join: build the table over the pipeline side

	est    float64 // the step's atom cardinality (sort: pipeline input rows)
	outEst float64 // estimated pipeline cardinality after this step

	// Exchange parallelism (driving scan only): par > 1 fans the scan out
	// across that many store shards on worker goroutines; parSlot is the
	// register slot an ordered gather merges on (-1 for arrival order).
	par     int
	parSlot int
}

// parallelScanMinRows is the estimated driving-scan cardinality below which
// fanning out across shards is not worth the goroutine and channel overhead.
var parallelScanMinRows = 1024.0

// buildLeftMargin is how many times smaller than the atom the pipeline must
// be estimated before a hash join builds over the pipeline side. It is
// deliberately large: the containment estimate is biased low on fan-out
// joins (it has no per-column distinct counts to see multiplying stars), and
// building left also pays arena copies of the pipeline rows, so flipping the
// build side must be clearly worth it under the most pessimistic reading of
// the estimate.
const buildLeftMargin = 16.0

// enablePlannerDepth gates the planner-depth features as one unit: Sort +
// MergeJoin at sort breaks, multi-shared-variable merge joins with residual
// equalities, and cost-based hash-join build sides. Disabled, the planner
// reproduces its historical shape — merge only on a single shared variable
// matching the pipeline's sort slot, hash joins always building on the atom —
// which the benchmarks keep as the cascading-hash-join baseline.
var enablePlannerDepth = true

// QueryPlan is a compiled physical plan for one conjunctive query: a
// left-deep pipeline of index scans, joins and sorts over the store's six
// sorted permutations, followed by projection onto the head and — when the
// head drops body variables — duplicate elimination. Build with PlanQuery,
// run with Eval, render with Explain.
type QueryPlan struct {
	st         store.Reader
	steps      []planStep
	width      int       // register file width: number of distinct body vars
	slotTerms  []cq.Term // slot -> variable, the compact numbering
	head       []cq.Term
	headSlots  []int     // per head position: register slot, or -1 for consts
	headConsts []dict.ID // per head position: constant ID when headSlots < 0
	distinct   bool      // false when the head exposes every body variable
}

// PlanQuery compiles the query using exact store counts for join ordering.
func PlanQuery(st store.Reader, q *cq.Query) (*QueryPlan, error) {
	return PlanQueryWithStats(st, q, storeCards{st})
}

// joinOutEst crudely estimates a join's output cardinality in the containment
// style the cost model uses: l·r/max(l,r) = min(l,r) on the primary shared
// variable, halved again per additional shared variable; with no shared
// variables it is the cross product.
func joinOutEst(l, r float64, keys int) float64 {
	if l <= 0 || r <= 0 {
		return 0
	}
	if keys == 0 {
		return l * r
	}
	out := l * r / math.Max(l, r)
	for i := 1; i < keys; i++ {
		out /= 2
	}
	return math.Max(out, 1)
}

// PlanQueryWithStats compiles the query, ordering joins by the provider's
// cardinalities (greedy: most selective first, preferring atoms connected to
// the variables already bound) and choosing each join's physical operator by
// the order the pipeline carries and the sides' estimated cardinalities:
//
//   - while the next atom shares the slot the pipeline is sorted on, it is
//     merge-joined (residual equality checks cover further shared variables);
//   - at a sort break — shared variables, none of them the sorted slot — the
//     planner compares sorting the pipeline to re-enable a merge join against
//     the atom's already-sorted permutation cursor with the best hash join,
//     using the physical weights in internal/cost;
//   - hash joins build over the estimated-smaller side: the atom's extent
//     (build=right, pipeline order preserved) or the pipeline-so-far
//     (build=left, output re-ordered by the probe cursor's permutation).
func PlanQueryWithStats(st store.Reader, q *cq.Query, cards Cards) (*QueryPlan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	order, counts := orderAtoms(q, cards)

	// Compact variable numbering, in pipeline binding order.
	slotOf := make(map[cq.Term]int)
	var slotTerms []cq.Term
	for _, ai := range order {
		for _, t := range q.Atoms[ai] {
			if t.IsVar() {
				if _, ok := slotOf[t]; !ok {
					slotOf[t] = len(slotTerms)
					slotTerms = append(slotTerms, t)
				}
			}
		}
	}
	p := &QueryPlan{
		st:        st,
		width:     len(slotTerms),
		slotTerms: slotTerms,
		head:      append([]cq.Term(nil), q.Head...),
	}

	bound := make([]bool, p.width)
	sorted := -1     // register slot the pipeline is currently sorted on
	scanSorted := -1 // the driving scan's sort slot (for the exchange fan-in)
	pipe := 0.0      // estimated cardinality of the pipeline so far
	for k, ai := range order {
		a := q.Atoms[ai]
		spec := makeAtomSpec(a, slotOf)
		est := counts[ai]

		// Shared variables: distinct register slots of a's already-bound
		// variables, with the first triple position holding each.
		var shared, sharedPos []int
		for pos := 0; pos < 3; pos++ {
			t := a[pos]
			if !t.IsVar() {
				continue
			}
			s := slotOf[t]
			if bound[s] && !containsInt(shared, s) {
				shared = append(shared, s)
				sharedPos = append(sharedPos, pos)
			}
		}

		consts := constPositions(a)
		switch {
		case k == 0:
			step := planStep{kind: stepScan, spec: spec, est: est}
			then := chooseSortPosition(q, order, slotOf)
			spec.perm, _ = store.PermFor(consts, then)
			if then >= 0 {
				sorted = slotOf[a[then]]
			}
			scanSorted = sorted
			pipe = est
			step.outEst = pipe
			p.steps = append(p.steps, step)

		case len(shared) > 0 && containsInt(shared, sorted) &&
			(enablePlannerDepth || len(shared) == 1):
			// The pipeline's sort order covers one shared variable: merge on
			// it, check the remaining shared variables as residual equalities.
			step := planStep{kind: stepMergeJoin, spec: spec, est: est, joinSlot: sorted}
			for i, s := range shared {
				if s == sorted {
					step.rpos = sharedPos[i]
				} else {
					step.extraSlots = append(step.extraSlots, s)
					step.extraPos = append(step.extraPos, sharedPos[i])
				}
			}
			spec.perm, _ = store.PermFor(consts, step.rpos)
			pipe = joinOutEst(pipe, est, len(shared))
			step.outEst = pipe
			p.steps = append(p.steps, step)
			// Output keeps the left order on the merge slot: sorted unchanged.

		case len(shared) > 0:
			// Sort break: no shared variable is the sorted slot. Either sort
			// the pipeline to merge against the atom's ordered cursor, or
			// hash-join building over the estimated-smaller side.
			//
			// The hash alternative is deliberately costed at its best build
			// side even when the buildLeftMargin below would block
			// build-left. Both sorting and building left lose badly when the
			// pipeline estimate runs low — the containment estimate's known
			// failure mode on fan-out joins — while hash-build-right's cost
			// is dominated by the atom count, which is reliable. Sorting must
			// therefore beat even the idealized hash to be chosen: if the
			// pipeline estimate holds, that idealized cost is achievable; if
			// it doesn't, the safe executor fallback (build=right) was the
			// right call anyway and the sort would have been the expensive
			// mistake. A minimax against estimation error, not an oversight.
			outEst := joinOutEst(pipe, est, len(shared))
			hashCost := cost.HashJoinCost(math.Min(pipe, est), math.Max(pipe, est))
			if enablePlannerDepth && cost.SortMergeJoinCost(pipe, est) <= hashCost {
				sorted = shared[0]
				p.steps = append(p.steps, planStep{kind: stepSort, joinSlot: sorted, est: pipe, outEst: pipe})
				step := planStep{kind: stepMergeJoin, spec: spec, est: est,
					joinSlot: sorted, rpos: sharedPos[0],
					extraSlots: shared[1:], extraPos: sharedPos[1:]}
				spec.perm, _ = store.PermFor(consts, step.rpos)
				pipe = outEst
				step.outEst = pipe
				p.steps = append(p.steps, step)
			} else {
				step := planStep{kind: stepHashJoin, spec: spec, est: est,
					keySlots: shared, keyPos: sharedPos,
					buildLeft: enablePlannerDepth && pipe*buildLeftMargin < est}
				if step.buildLeft {
					// Probe-side output follows the cursor's permutation:
					// sort it on a new variable a later atom joins on, so the
					// probe establishes the next merge's order for free.
					then := probeOrderPosition(q, order[k+1:], a, slotOf, bound)
					spec.perm, _ = store.PermFor(consts, then)
					sorted = -1
					if then >= 0 {
						sorted = slotOf[a[then]]
					}
				} else {
					// build=right streams the pipeline: order preserved.
					spec.perm, _ = store.PermFor(consts, -1)
				}
				pipe = outEst
				step.outEst = pipe
				p.steps = append(p.steps, step)
			}

		default:
			step := planStep{kind: stepCross, spec: spec, est: est}
			spec.perm, _ = store.PermFor(consts, -1)
			pipe = joinOutEst(pipe, est, 0)
			step.outEst = pipe
			p.steps = append(p.steps, step)
		}
		for _, t := range a {
			if t.IsVar() {
				bound[slotOf[t]] = true
			}
		}
	}

	// Exchange parallelism: a driving scan whose placement route spans more
	// than one shard touches all of them, so fan it out across the route when
	// it is large enough to amortize the workers. The route is computed by
	// the store's Placement: a pattern bound on a partition column (subject,
	// or object on a dual layout) prunes to one shard and stays serial —
	// planner-driven shard pruning. The fan-in must be an ordered gather
	// (merging on the scan's sort slot) only when a downstream merge join
	// consumes that order before anything re-establishes (Sort) or destroys
	// (build=left hash join) it; otherwise batches surface in arrival order.
	// With one shard (the default) plans are exactly the historical serial
	// ones. The concrete shard subset is re-resolved from the instantiated
	// pattern at pipeline-build time (buildVecOps): constant
	// substitution in cached plan templates never changes which positions
	// are bound — so this par decision stays valid — but it does change
	// which single shard a bound position hashes to.
	if len(p.steps) > 0 && p.steps[0].kind == stepScan && st != nil {
		s0 := &p.steps[0]
		route := st.Placement().Route(s0.spec.perm, s0.spec.pat)
		if route.Len() > 1 && s0.est >= parallelScanMinRows {
			s0.par = route.Len()
			s0.parSlot = -1
			for i := 1; i < len(p.steps); i++ {
				s := &p.steps[i]
				if s.kind == stepMergeJoin {
					s0.parSlot = scanSorted
					break
				}
				if s.kind == stepSort || (s.kind == stepHashJoin && s.buildLeft) {
					break
				}
				// build=right hash joins and cross products preserve the
				// scan's order; keep looking.
			}
		}
	}

	// Head projection: slots for variables, IDs for constants. Distinct is
	// needed only when the head drops a body variable — when every body
	// variable is exposed, assignments map bijectively to head tuples and the
	// pipeline already emits each assignment once.
	p.headSlots = make([]int, len(p.head))
	p.headConsts = make([]dict.ID, len(p.head))
	headVars := make(map[cq.Term]bool, len(p.head))
	for i, h := range p.head {
		if h.IsConst() {
			p.headSlots[i] = -1
			p.headConsts[i] = h.ConstID()
			continue
		}
		p.headSlots[i] = slotOf[h]
		headVars[h] = true
	}
	for _, t := range slotTerms {
		if !headVars[t] {
			p.distinct = true
			break
		}
	}
	return p, nil
}

// bindPos maps a triple position to the register slot it binds.
type bindPos struct {
	pos  int // 0..2: position in the scanned triple
	slot int // register slot of the variable at that position
}

// atomSpec is the compiled access path of one body atom: the pattern of its
// constants, the permutation to scan, and how matching triples bind into
// registers.
type atomSpec struct {
	atom   cq.Atom // retained for explain only
	pat    store.Pattern
	perm   store.Perm
	binds  []bindPos // first occurrence of each variable
	checks [][2]int  // positions that must be equal (repeated variables)
}

// makeAtomSpec compiles one atom's access path: constant pattern, variable
// bindings (first occurrence of each variable) and repeated-variable checks.
// The permutation is chosen by the caller per the atom's role.
func makeAtomSpec(a cq.Atom, slotOf map[cq.Term]int) *atomSpec {
	spec := &atomSpec{atom: a}
	firstPos := make(map[cq.Term]int, 3)
	for pos := 0; pos < 3; pos++ {
		t := a[pos]
		if t.IsConst() {
			spec.pat[pos] = t.ConstID()
			continue
		}
		if fp, ok := firstPos[t]; ok {
			spec.checks = append(spec.checks, [2]int{fp, pos})
			continue
		}
		firstPos[t] = pos
		spec.binds = append(spec.binds, bindPos{pos: pos, slot: slotOf[t]})
	}
	return spec
}

// chooseSortPosition picks the triple position the first scan should sort on:
// a variable the second atom joins on (the merge then covers it, with any
// further shared variables as residual checks), else any variable occurring
// in a later atom, else the first variable position; -1 for an all-constant
// atom.
func chooseSortPosition(q *cq.Query, order []int, slotOf map[cq.Term]int) int {
	a0 := q.Atoms[order[0]]
	if len(order) > 1 {
		a1 := q.Atoms[order[1]]
		var sharedVars []cq.Term
		for _, t := range a0.Vars() {
			if a1.HasVar(t) {
				sharedVars = append(sharedVars, t)
			}
		}
		if len(sharedVars) == 1 || (enablePlannerDepth && len(sharedVars) > 1) {
			for pos := 0; pos < 3; pos++ {
				if a0[pos] == sharedVars[0] {
					return pos
				}
			}
		}
	}
	later := func(t cq.Term) bool {
		for _, ai := range order[1:] {
			if q.Atoms[ai].HasVar(t) {
				return true
			}
		}
		return false
	}
	fallback := -1
	for pos := 0; pos < 3; pos++ {
		if !a0[pos].IsVar() {
			continue
		}
		if fallback < 0 {
			fallback = pos
		}
		if later(a0[pos]) {
			return pos
		}
	}
	return fallback
}

// probeOrderPosition picks the triple position a build-left hash join's probe
// cursor should sort on: the first position holding a not-yet-bound variable
// (first occurrence within the atom) that a later atom joins on, so the probe
// stream leaves the pipeline sorted for a downstream merge; -1 when no such
// position exists.
func probeOrderPosition(q *cq.Query, rest []int, a cq.Atom, slotOf map[cq.Term]int, bound []bool) int {
	for pos := 0; pos < 3; pos++ {
		t := a[pos]
		if !t.IsVar() || bound[slotOf[t]] {
			continue
		}
		firstOcc := true
		for prev := 0; prev < pos; prev++ {
			if a[prev] == t {
				firstOcc = false
				break
			}
		}
		if !firstOcc {
			continue
		}
		for _, ai := range rest {
			if q.Atoms[ai].HasVar(t) {
				return pos
			}
		}
	}
	return -1
}

func constPositions(a cq.Atom) []int {
	var out []int
	for pos := 0; pos < 3; pos++ {
		if a[pos].IsConst() {
			out = append(out, pos)
		}
	}
	return out
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// orderAtoms orders the body greedily by the provider's cardinalities: start
// from the atom with the smallest estimate; repeatedly append the connected
// atom (sharing a bound variable) with the smallest estimate, falling back to
// the globally smallest when none connects. The per-atom counts are returned
// for reuse — AtomCount can be a real scan for repeated-variable atoms, so
// the planner asks once.
func orderAtoms(q *cq.Query, cards Cards) ([]int, []float64) {
	n := len(q.Atoms)
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := make(map[cq.Term]struct{})
	counts := make([]float64, n)
	for i := range counts {
		counts[i] = cards.AtomCount(q.Atoms[i])
	}
	connected := func(i int) bool {
		for _, t := range q.Atoms[i] {
			if t.IsVar() {
				if _, ok := bound[t]; ok {
					return true
				}
			}
		}
		return false
	}
	for len(order) < n {
		best, bestCount, bestConn := -1, 0.0, false
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			c, conn := counts[i], connected(i)
			if best == -1 || (conn && !bestConn) || (conn == bestConn && c < bestCount) {
				best, bestCount, bestConn = i, c, conn
			}
		}
		used[best] = true
		order = append(order, best)
		for _, t := range q.Atoms[best] {
			if t.IsVar() {
				bound[t] = struct{}{}
			}
		}
	}
	return order, counts
}

// scanRoute resolves the concrete shard route for a parallel driving scan at
// pipeline-build time. The planner froze the decision *that* the scan fans
// out (s.par, from the route's shape — which positions are bound); the
// concrete shard subset depends on the constant values actually in the
// pattern, which for a cached plan template are substituted per Instantiate
// call. Non-parallel steps return dop 1 without consulting placement (plans
// built against a nil store — pure cost exploration — never fan out).
func (p *QueryPlan) scanRoute(s *planStep) (store.Route, int) {
	if s.par <= 1 || p.st == nil {
		return store.Route{}, 1
	}
	route := p.st.Placement().Route(s.spec.perm, s.spec.pat)
	return route, route.Len()
}

// distinctHintCap bounds the distinct set's pre-size: estimates at or above
// it clamp to the cap (one bounded allocation) instead of being discarded —
// the old behavior fell back to a 64-slot table and rehash-stormed on huge
// outputs.
const distinctHintCap = 1 << 20

// distinctSizeHint sizes the output row set from the plan's driving-scan
// estimate: the greedy order starts at the most selective atom, so this is a
// cheap lower-bound hint that avoids most rehashing on large outputs.
func distinctSizeHint(est float64) int {
	const def = 64
	if est <= def {
		// Trust small estimates: a point lookup dedups a handful of rows, and
		// an undersized table just doubles on the way up. newIDTable's floor
		// (16 slots) bounds the low end.
		if est < 1 {
			est = 1
		}
		return int(est)
	}
	if est >= distinctHintCap {
		return distinctHintCap
	}
	return int(est)
}

// Eval runs the pipeline and returns the distinct head tuples.
func (p *QueryPlan) Eval() (*Relation, error) {
	return p.EvalWithOptions(ExecOptions{})
}

// EvalWithOptions is Eval under explicit execution options. It drains the
// batch pipeline (vec.go): head projection reads the live rows of each batch
// straight out of the columns into arena-copied output rows, deduplicated
// when the head drops a body variable. A canceled opts.Ctx stops the
// pipeline at its next checkpoint and surfaces ctx.Err().
func (p *QueryPlan) EvalWithOptions(opts ExecOptions) (*Relation, error) {
	opts.intr = newInterrupt(opts.Ctx)
	root := p.buildVecOps(opts.intr)
	defer closeVop(root) // release parallel-scan workers on every exit path
	out := NewRelation(p.head)
	scratch := make(Row, len(p.head))
	var arena rowArena
	var seen *rowSet
	if p.distinct {
		hint := 64
		if len(p.steps) > 0 {
			hint = distinctSizeHint(p.steps[0].est)
		}
		seen = newRowSet(hint)
	}
	// Constant head terms are filled once; per batch, the variable head
	// columns are resolved to their register columns up front so the per-row
	// loop is straight gathers with no slot dispatch.
	hcols := make([][]dict.ID, 0, len(p.head))
	hdst := make([]int, 0, len(p.head))
	for c, s := range p.headSlots {
		if s < 0 {
			scratch[c] = p.headConsts[c]
		} else {
			hdst = append(hdst, c)
		}
	}
	for {
		b, ok := root.nextBatch()
		if !ok {
			break
		}
		hcols = hcols[:0]
		for _, c := range hdst {
			hcols = append(hcols, b.cols[p.headSlots[c]])
		}
		for _, i := range b.liveSel() {
			for k, c := range hdst {
				scratch[c] = hcols[k][i]
			}
			if seen == nil {
				out.Rows = append(out.Rows, arena.copyRow(scratch))
			} else if kept, added := seen.addCopy(scratch); added {
				out.Rows = append(out.Rows, kept)
			}
		}
	}
	if err := opts.ctxErr(); err != nil {
		return nil, err
	}
	return out, nil
}

// Describe returns the physical plan tree for explain surfaces. Operators
// that own a batching knob — the scan leaves that decode column batches and
// the Gather exchange that hands them between goroutines — self-describe
// their batch size (like dop= for parallelism).
func (p *QueryPlan) Describe() *algebra.PhysNode {
	var node *algebra.PhysNode
	for _, s := range p.steps {
		if s.kind == stepSort {
			node = algebra.NewPhysNode("Sort",
				fmt.Sprintf("[%s]", p.slotTerms[s.joinSlot]), s.est, node)
			continue
		}
		a := s.spec.atom
		scan := algebra.NewPhysNode("IndexScan",
			fmt.Sprintf("t(%s, %s, %s) perm=%s prefix=%d",
				a[0], a[1], a[2], s.spec.perm, len(constPositions(a))),
			s.est)
		// Placement routing: on a sharded layout every scan leaf shows how
		// many of its routed side's partitions it opens (shards=m/K). Every
		// operator opens its cursor through the store's routed NewCursor, so
		// the annotation is the runtime behaviour, not a hint. Flat stores
		// (K=1) stay unannotated — their plans are the historical ones.
		if p.st != nil {
			if r := p.st.Placement().Route(s.spec.perm, s.spec.pat); r.K > 1 {
				scan.Detail += fmt.Sprintf(" shards=%d/%d", r.Len(), r.K)
			}
		}
		// Scan leaves that decode column batches self-describe the batch
		// size. A merge join's inner cursor is the exception: its group
		// buffering consumes the cursor triple-at-a-time, so its scan stays
		// unannotated.
		if s.kind != stepMergeJoin {
			scan.Batch = BatchSize
		}
		switch s.kind {
		case stepScan:
			node = scan
			if s.par > 1 {
				scan.Op = "ParallelScan"
				detail := ""
				if s.parSlot >= 0 {
					detail = fmt.Sprintf("merge=[%s]", p.slotTerms[s.parSlot])
				}
				gather := algebra.NewPhysNode("Gather", detail, s.est, scan)
				gather.DOP = s.par
				gather.Batch = BatchSize
				node = gather
			}
		case stepMergeJoin:
			detail := fmt.Sprintf("[%s]", p.slotTerms[s.joinSlot])
			if len(s.extraSlots) > 0 {
				names := make([]string, len(s.extraSlots))
				for i, sl := range s.extraSlots {
					names[i] = p.slotTerms[sl].String()
				}
				detail += fmt.Sprintf(" residual=[%s]", strings.Join(names, ","))
			}
			node = algebra.NewPhysNode("MergeJoin", detail, s.outEst, node, scan)
		case stepHashJoin:
			names := make([]string, len(s.keySlots))
			for i, sl := range s.keySlots {
				names[i] = p.slotTerms[sl].String()
			}
			side := "right"
			if s.buildLeft {
				side = "left"
			}
			node = algebra.NewPhysNode("HashJoin",
				fmt.Sprintf("[%s]", strings.Join(names, ",")), s.outEst, node, scan)
			node.Build = side
		case stepCross:
			node = algebra.NewPhysNode("CrossProduct", "", s.outEst, node, scan)
		}
	}
	names := make([]string, len(p.head))
	for i, h := range p.head {
		names[i] = h.String()
	}
	node = algebra.NewPhysNode("Project", "["+strings.Join(names, ",")+"]", 0, node)
	if p.distinct {
		node = algebra.NewPhysNode("Distinct", "", 0, node)
	}
	return node
}

// Explain renders the physical plan as an indented operator tree.
func (p *QueryPlan) Explain() string { return p.Describe().String() }
