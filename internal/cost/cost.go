// Package cost implements the cost estimation function cε of Section 3.3:
//
//	cε(S) = cs·VSO(S) + cr·REC(S) + cm·VMC(S)
//
// with view space occupancy (VSO) estimated from per-atom exact counts under
// the uniformity and independence assumptions using the standard relational
// formulas [18], rewriting evaluation cost (REC) as c1·io + c2·cpu, and view
// maintenance cost (VMC) as Σ_v f^len(v).
package cost

import (
	"math"
	"slices"
	"sync"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
)

// Stats supplies the statistics of Section 3.3: exact counts of the triples
// matching an atom's constant pattern, per-column distinct counts and average
// value widths, and the total triple count. Implementations may answer from
// the plain store, from a saturated store, or from reformulated counts
// (post-reformulation, Section 4.3).
type Stats interface {
	// AtomCount returns the exact number of triples matching the atom when
	// variables are treated as wildcards (repeated-variable equalities are
	// handled by the estimator, not the provider).
	AtomCount(a cq.Atom) float64
	// TotalTriples returns |t|, the triple table size.
	TotalTriples() float64
	// DistinctCount returns the number of distinct values in column col
	// (0=s, 1=p, 2=o).
	DistinctCount(col int) float64
	// AvgWidth returns the average width in bytes of values in column col.
	AvgWidth(col int) float64
}

// Weights are the numerical weights of the cost function. The zero value is
// not useful; start from DefaultWeights.
type Weights struct {
	CS float64 // cs: view space occupancy weight
	CR float64 // cr: rewriting evaluation weight
	CM float64 // cm: view maintenance weight
	C1 float64 // c1: io weight inside REC
	C2 float64 // c2: cpu weight inside REC
	F  float64 // f: per-join maintenance fan-out in VMC = Σ f^len(v)
}

// DefaultWeights returns the weights used throughout the paper's experiments:
// cs = cr = 1, cm = 0.5 ("in most cases this lead to cm=0.5"), f = 2.
func DefaultWeights() Weights {
	return Weights{CS: 1, CR: 1, CM: 0.5, C1: 1, C2: 1, F: 2}
}

// Breakdown reports the components of a state's cost.
type Breakdown struct {
	VSO   float64
	REC   float64
	VMC   float64
	Total float64
}

// Estimator evaluates the cost function against a statistics provider.
//
// Per-view estimates (cardinality and row width) are memoized at two levels.
// The first is keyed by the identity of the view definition (*cq.Query): a
// view costed in an earlier state costs one map lookup. This is sound under
// the condition planCache already relies on: a view definition is never
// mutated once created, and successor states share their predecessors'
// definitions by pointer. The second level is keyed by canonical view code,
// so equal definitions reached through different pointers share the
// provider's work; it is consulted once per new definition.
type Estimator struct {
	Stats Stats
	W     Weights

	// mu guards the caches; SearchParallel costs states from several
	// goroutines against one estimator.
	mu       sync.Mutex
	viewMemo map[*cq.Query]viewFigures
	byCode   map[string]viewFigures
	// planCache memoizes full plan costings by node identity. Plans are
	// immutable and shared between a state and its successors (transitions
	// substitute only the affected rewritings), so the cost of a new state
	// re-walks only its changed plans. Sound because a plan tree references
	// views by definition through the estimator's own view caches, and
	// every scan's view definition is immutable once created.
	planCache map[algebra.Plan]PlanCosting
}

// viewFigures are the memoized estimates of one view definition.
type viewFigures struct {
	card  float64 // |v|ε
	width float64 // bytes per tuple
}

// NewEstimator returns an estimator with the given statistics and weights.
func NewEstimator(stats Stats, w Weights) *Estimator {
	return &Estimator{
		Stats:     stats,
		W:         w,
		viewMemo:  make(map[*cq.Query]viewFigures),
		byCode:    make(map[string]viewFigures),
		planCache: make(map[algebra.Plan]PlanCosting),
	}
}

// atomPatternCount applies the provider count plus the selectivity of
// repeated variables inside the atom (e.g. t(X, p, X)).
func (e *Estimator) atomPatternCount(a cq.Atom) float64 {
	n := e.Stats.AtomCount(a)
	for i := 0; i < 3; i++ {
		if !a[i].IsVar() {
			continue
		}
		for j := i + 1; j < 3; j++ {
			if a[j] == a[i] {
				v := math.Max(e.colDistinct(i, n), e.colDistinct(j, n))
				if v > 0 {
					n /= v
				}
			}
		}
	}
	return n
}

// colDistinct caps the column's distinct count by the relation size.
func (e *Estimator) colDistinct(col int, size float64) float64 {
	d := e.Stats.DistinctCount(col)
	if size < d {
		return math.Max(size, 1)
	}
	return math.Max(d, 1)
}

// figures returns the memoized estimates of view v, computing its canonical
// code only the first time this definition is seen.
func (e *Estimator) figures(v *cq.Query) viewFigures {
	e.mu.Lock()
	f, ok := e.viewMemo[v]
	e.mu.Unlock()
	if ok {
		return f
	}
	code := v.CanonicalCode()
	e.mu.Lock()
	f, ok = e.byCode[code]
	e.mu.Unlock()
	if !ok {
		f = viewFigures{card: e.cardinality(v), width: e.rowWidth(v)}
	}
	e.mu.Lock()
	e.byCode[code] = f
	e.viewMemo[v] = f
	e.mu.Unlock()
	return f
}

// ViewCardinality estimates |v|ε for a conjunctive view: the product of the
// exact per-atom counts, reduced by one equi-join selectivity factor
// 1/max(V(l), V(r)) per join edge in a spanning chain of each variable's
// occurrences — the textbook formula of [18] under independence/uniformity.
func (e *Estimator) ViewCardinality(v *cq.Query) float64 { return e.figures(v).card }

func (e *Estimator) cardinality(v *cq.Query) float64 {
	card := 1.0
	atomCard := make([]float64, len(v.Atoms))
	for i, a := range v.Atoms {
		atomCard[i] = e.atomPatternCount(a)
		card *= atomCard[i]
	}
	// Chain each variable's occurrences in atom order (its first column in
	// each atom). Variables are taken in order of first occurrence, so the
	// divisions, and with them the estimate's last bits, are deterministic.
	var varBuf [16]cq.Term
	vars := varBuf[:0]
	for _, a := range v.Atoms {
		for c := 0; c < 3; c++ {
			if a[c].IsVar() && !slices.Contains(vars, a[c]) {
				vars = append(vars, a[c])
			}
		}
	}
	for _, x := range vars {
		prevAtom, prevCol := -1, 0
		for i, a := range v.Atoms {
			col := slices.Index(a[:], x)
			if col < 0 {
				continue
			}
			if prevAtom >= 0 {
				vl := e.colDistinct(prevCol, atomCard[prevAtom])
				vr := e.colDistinct(col, atomCard[i])
				card /= math.Max(vl, vr)
			}
			prevAtom, prevCol = i, col
		}
	}
	if card < 0 {
		card = 0
	}
	return card
}

// ViewRowWidth estimates the stored width in bytes of one view tuple: the sum
// over head terms of the average width of the triple-table column the term
// first occurs in (Section 3.3's "average size of a subject, property,
// respectively object").
func (e *Estimator) ViewRowWidth(v *cq.Query) float64 { return e.figures(v).width }

func (e *Estimator) rowWidth(v *cq.Query) float64 {
	width := 0.0
	for _, h := range v.Head {
		width += e.Stats.AvgWidth(firstBodyColumn(v, h))
	}
	return width
}

// firstBodyColumn returns the triple-table column (0/1/2) of the first body
// occurrence of term h, defaulting to the object column.
func firstBodyColumn(v *cq.Query, h cq.Term) int {
	for _, a := range v.Atoms {
		for c := 0; c < 3; c++ {
			if a[c] == h {
				return c
			}
		}
	}
	return 2
}

// ViewSpace estimates the space occupancy of one view: |v|ε × row width.
func (e *Estimator) ViewSpace(v *cq.Query) float64 {
	f := e.figures(v)
	return f.card * f.width
}

// viewOrder returns the IDs of views in increasing order, appended to buf.
// Summing in this order makes VSO and VMC, and so every state cost, repeat
// bit for bit; a caller-provided stack array keeps the common case free of
// heap allocation.
func viewOrder(views map[algebra.ViewID]*cq.Query, buf []algebra.ViewID) []algebra.ViewID {
	for id := range views {
		buf = append(buf, id)
	}
	slices.Sort(buf)
	return buf
}

// VSO sums view space over the view set.
func (e *Estimator) VSO(views map[algebra.ViewID]*cq.Query) float64 {
	var buf [64]algebra.ViewID
	total := 0.0
	for _, id := range viewOrder(views, buf[:0]) {
		total += e.ViewSpace(views[id])
	}
	return total
}

// VMC is the view maintenance cost Σ_v f^len(v) (Section 3.3).
func (e *Estimator) VMC(views map[algebra.ViewID]*cq.Query) float64 {
	var buf [64]algebra.ViewID
	total := 0.0
	for _, id := range viewOrder(views, buf[:0]) {
		total += math.Pow(e.W.F, float64(views[id].Len()))
	}
	return total
}

// REC is the rewriting evaluation cost Σ_r c1·io(r) + c2·cpu(r). Costings
// are memoized by plan identity (see planCache); an Estimator must therefore
// not be shared across searches that could reuse plan pointers with
// different view definitions — the library creates one estimator per search.
func (e *Estimator) REC(plans []algebra.Plan, views map[algebra.ViewID]*cq.Query) float64 {
	total := 0.0
	for _, p := range plans {
		e.mu.Lock()
		pc, ok := e.planCache[p]
		e.mu.Unlock()
		if !ok {
			pc = e.PlanCost(p, views)
			e.mu.Lock()
			e.planCache[p] = pc
			e.mu.Unlock()
		}
		total += e.W.C1*pc.IO + e.W.C2*pc.CPU
	}
	return total
}

// CostState evaluates the full cost function over a state's views and
// rewriting plans.
func (e *Estimator) CostState(views map[algebra.ViewID]*cq.Query, plans []algebra.Plan) Breakdown {
	b := Breakdown{
		VSO: e.VSO(views),
		REC: e.REC(plans, views),
		VMC: e.VMC(views),
	}
	b.Total = e.W.CS*b.VSO + e.W.CR*b.REC + e.W.CM*b.VMC
	return b
}

// CalibrateCM returns a maintenance weight cm such that cm·VMC(S0) lands two
// orders of magnitude below the other components of the initial state's cost,
// following the experimental setup of Section 6 ("we set the value of cm
// taking into account the database size and the average number of atoms per
// query, so that for the initial state S0, cm·VMC is within at most two
// orders of magnitude from the other two cost components").
func (e *Estimator) CalibrateCM(views map[algebra.ViewID]*cq.Query, plans []algebra.Plan) float64 {
	vmc := e.VMC(views)
	if vmc <= 0 {
		return e.W.CM
	}
	other := e.W.CS*e.VSO(views) + e.W.CR*e.REC(plans, views)
	cm := other / (100 * vmc)
	if cm <= 0 || math.IsNaN(cm) || math.IsInf(cm, 0) {
		return e.W.CM
	}
	return cm
}
