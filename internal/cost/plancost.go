package cost

import (
	"math"
	"slices"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
)

// Physical join-method weights: the per-row constants the engine's physical
// planner uses to choose between a hash join and sorting the pipeline to
// enable a merge join. They reflect the engine's measured operator profiles,
// not the logical cost function of Section 3.3 (whose weights live in
// Weights): a hash-table insert costs a hash, a table slot and a row copy; a
// probe costs a hash and a chain walk; a merge step is one comparison over an
// already-sorted stream; a sort comparison includes sort.Slice dispatch
// overhead.
const (
	// HashBuildWeight is the cost of inserting one row into the join table.
	HashBuildWeight = 2.0
	// HashProbeWeight is the cost of probing the table with one row.
	HashProbeWeight = 1.0
	// SortWeight is the cost of one comparison while sorting the pipeline.
	SortWeight = 1.5
	// MergeWeight is the cost of advancing one row of a sorted merge.
	MergeWeight = 0.5
)

// HashJoinCost estimates a hash join that builds a table over build rows and
// probes it with probe rows. Callers pass the smaller side as build when the
// executor is free to choose its build side.
func HashJoinCost(build, probe float64) float64 {
	return HashBuildWeight*build + HashProbeWeight*probe
}

// SortMergeJoinCost estimates sorting a pipeline of pipe rows and merge-
// joining it against an index cursor of atom rows that is already sorted
// (the store's permutation indexes make the right side free to order).
func SortMergeJoinCost(pipe, atom float64) float64 {
	return SortWeight*pipe*math.Log2(math.Max(pipe, 2)) + MergeWeight*(pipe+atom)
}

// RewriteBuildMargin is how much cheaper (under HashJoinCost) building a
// rewriting hash join over its left input must be before the executor flips
// from the default build=right. Rewriting inputs are materialized view
// extents whose leaf cardinalities are exact at execution time, so the margin
// is far smaller than the store planner's buildLeftMargin (which guards
// against the containment estimate under-reading fan-out joins); it still
// absorbs estimate drift introduced by selections and inner joins. With the
// 2:1 build:probe weights this flips the build side once the right input
// exceeds four times the left.
const RewriteBuildMargin = 1.5

// HashJoinBuildLeft reports whether a hash join that is free to choose its
// build side should build the table over its left input: building left must
// beat building right by RewriteBuildMargin. Ties (including the unknown
// 0-vs-0 case of estimate-free explains) keep the historical build=right.
func HashJoinBuildLeft(left, right float64) bool {
	return HashJoinCost(left, right)*RewriteBuildMargin < HashJoinCost(right, left)
}

// PlanCosting carries the estimated execution profile of a rewriting plan.
type PlanCosting struct {
	// Card is the estimated output cardinality.
	Card float64
	// IO is Σ |v|ε over the views scanned by the plan (ioε of Section 3.3).
	IO float64
	// CPU sums the costs of selections and joins (cpuε). Projections are
	// free: they are applied on the fly while streaming, which preserves the
	// paper's invariant that View Fusion never increases query cost.
	CPU float64

	cols map[cq.Term]colInfo
}

// colInfo tracks, per output column, the triple-table column it derives from
// and its estimated number of distinct values.
type colInfo struct {
	pos      int
	distinct float64
}

// PlanCost estimates the execution cost of a rewriting plan against the view
// definitions it scans, using hash-join accounting: build + probe + output.
func (e *Estimator) PlanCost(p algebra.Plan, views map[algebra.ViewID]*cq.Query) PlanCosting {
	switch n := p.(type) {
	case *algebra.Scan:
		return e.scanCost(n, views)
	case *algebra.Select:
		return e.selectCost(n, views)
	case *algebra.Project:
		in := e.PlanCost(n.Input, views)
		cols := make(map[cq.Term]colInfo, len(n.Cols))
		for _, c := range n.Cols {
			if ci, ok := in.cols[c]; ok {
				cols[c] = ci
			}
		}
		return PlanCosting{Card: in.Card, IO: in.IO, CPU: in.CPU, cols: cols}
	case *algebra.Join:
		return e.joinCost(n, views)
	case *algebra.Union:
		out := PlanCosting{cols: map[cq.Term]colInfo{}}
		for i, b := range n.Branches {
			bc := e.PlanCost(b, views)
			out.Card += bc.Card
			out.IO += bc.IO
			out.CPU += bc.CPU
			if i == 0 {
				out.cols = bc.cols
			}
		}
		// Deduplicating the union touches every produced tuple once.
		out.CPU += out.Card
		return out
	default:
		return PlanCosting{cols: map[cq.Term]colInfo{}}
	}
}

func (e *Estimator) scanCost(n *algebra.Scan, views map[algebra.ViewID]*cq.Query) PlanCosting {
	v, ok := views[n.View]
	if !ok {
		// Unknown view: treat as empty. Search invariants prevent this.
		return PlanCosting{cols: map[cq.Term]colInfo{}}
	}
	card := e.ViewCardinality(v)
	cols := make(map[cq.Term]colInfo, len(n.Cols))
	for i, label := range n.Cols {
		if i >= len(v.Head) {
			break
		}
		pos := firstBodyColumn(v, v.Head[i])
		cols[label] = colInfo{pos: pos, distinct: e.colDistinct(pos, card)}
	}
	return PlanCosting{Card: card, IO: card, cols: cols}
}

func (e *Estimator) selectCost(n *algebra.Select, views map[algebra.ViewID]*cq.Query) PlanCosting {
	in := e.PlanCost(n.Input, views)
	// Inspect every input tuple.
	cpu := in.CPU + in.Card
	card := in.Card
	cols := make(map[cq.Term]colInfo, len(in.cols))
	for k, v := range in.cols {
		cols[k] = v
	}
	for _, c := range n.Conds {
		li, ok := cols[c.Left]
		if !ok {
			li = colInfo{pos: 2, distinct: math.Max(card, 1)}
		}
		if c.Right.IsConst() {
			sel := 1 / math.Max(li.distinct, 1)
			card *= sel
			cols[c.Left] = colInfo{pos: li.pos, distinct: 1}
			continue
		}
		ri, ok := cols[c.Right]
		if !ok {
			ri = colInfo{pos: 2, distinct: math.Max(card, 1)}
		}
		card /= math.Max(math.Max(li.distinct, ri.distinct), 1)
		d := math.Min(li.distinct, ri.distinct)
		cols[c.Left] = colInfo{pos: li.pos, distinct: d}
		cols[c.Right] = colInfo{pos: ri.pos, distinct: d}
	}
	// Cap distinct counts by the reduced cardinality.
	for k, v := range cols {
		if v.distinct > card {
			cols[k] = colInfo{pos: v.pos, distinct: math.Max(card, 1)}
		}
	}
	return PlanCosting{Card: card, IO: in.IO, CPU: cpu, cols: cols}
}

func (e *Estimator) joinCost(n *algebra.Join, views map[algebra.ViewID]*cq.Query) PlanCosting {
	l := e.PlanCost(n.Left, views)
	r := e.PlanCost(n.Right, views)
	card := l.Card * r.Card
	// Natural-join keys: labels present on both sides, taken in label order
	// so the divisions, and the estimate's last bits, are deterministic.
	var keyBuf [16]cq.Term
	keys := keyBuf[:0]
	for label := range l.cols {
		if _, ok := r.cols[label]; ok && label.IsVar() {
			keys = append(keys, label)
		}
	}
	slices.Sort(keys)
	for _, label := range keys {
		card /= math.Max(math.Max(l.cols[label].distinct, r.cols[label].distinct), 1)
	}
	// Explicit cross conditions (Join Cut's ⊳⊲e).
	for _, c := range n.Conds {
		li, lok := l.cols[c.Left]
		ri, rok := r.cols[c.Right]
		dl, dr := math.Max(l.Card, 1), math.Max(r.Card, 1)
		if lok {
			dl = li.distinct
		}
		if rok {
			dr = ri.distinct
		}
		card /= math.Max(math.Max(dl, dr), 1)
	}
	// Hash join: build the smaller side, probe the larger, emit the output.
	cpu := l.CPU + r.CPU + math.Min(l.Card, r.Card) + math.Max(l.Card, r.Card) + card
	cols := make(map[cq.Term]colInfo, len(l.cols)+len(r.cols))
	for k, v := range l.cols {
		cols[k] = v
	}
	for k, v := range r.cols {
		if _, ok := cols[k]; !ok {
			cols[k] = v
		}
	}
	for k, v := range cols {
		if v.distinct > card {
			cols[k] = colInfo{pos: v.pos, distinct: math.Max(card, 1)}
		}
	}
	return PlanCosting{Card: card, IO: l.IO + r.IO, CPU: cpu, cols: cols}
}
