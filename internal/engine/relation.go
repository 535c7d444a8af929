// Package engine implements query evaluation: conjunctive queries and unions
// thereof over the indexed triple store (the stand-in for the paper's
// PostgreSQL triple table), materialization of views, and execution of the
// select-project-join-union rewriting plans produced by the search. All
// evaluation uses set semantics, matching the distinct answers of conjunctive
// query theory that the paper's definitions are built on.
package engine

import (
	"fmt"
	"sort"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

// Row is one result tuple of dictionary-encoded values.
type Row []dict.ID

// Relation is a materialized set of rows with labeled columns. Column labels
// are cq terms: the head terms of the view the relation materializes, or the
// relabeled columns of a plan node.
type Relation struct {
	Cols []cq.Term
	Rows []Row
}

// NewRelation returns an empty relation with the given column labels.
func NewRelation(cols []cq.Term) *Relation {
	return &Relation{Cols: append([]cq.Term(nil), cols...)}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Cols) }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// ColIndex returns the index of the first column with the given label, or -1.
func (r *Relation) ColIndex(label cq.Term) int {
	for i, c := range r.Cols {
		if c == label {
			return i
		}
	}
	return -1
}

// rowSet is a set of rows for set-semantics deduplication. Rows are keyed by
// a 64-bit hash; collisions chain through a flat index array and are
// resolved by value comparison. Membership tests allocate nothing — unlike
// the string keys this replaced, which allocated one 8·arity-byte string per
// candidate row — and insertion costs one map entry plus two amortized
// appends.
type rowSet struct {
	index *idTable // hash -> head of chain, as row index + 1
	rows  []Row    // stored rows, insertion order
	next  []int32  // collision chain, same encoding as index
	rowArena
}

func newRowSet(sizeHint int) *rowSet {
	return &rowSet{index: newIDTable(sizeHint)}
}

// rowArena chunk-allocates row copies for bulk output materialization: one
// allocation per ~4k values instead of one per row.
type rowArena struct {
	chunk []dict.ID
}

func (a *rowArena) copyRow(row Row) Row {
	out := a.alloc(len(row))
	copy(out, row)
	return out
}

// alloc returns an uninitialized arena row of n values; the caller fills it.
// Used by operators that assemble output rows from two inputs (joins), where
// a copyRow of a scratch buffer would cost an extra pass.
func (a *rowArena) alloc(n int) Row {
	if len(a.chunk)+n > cap(a.chunk) {
		// Chunks grow geometrically from small: point lookups with a handful
		// of output rows pay for a cacheline or two, bulk materialization
		// converges on 4k-value chunks within a few doublings.
		size := cap(a.chunk) * 2
		if size < 64 {
			size = 64
		}
		if size > 4096 {
			size = 4096
		}
		if n > size {
			size = n
		}
		a.chunk = make([]dict.ID, 0, size)
	}
	off := len(a.chunk)
	a.chunk = a.chunk[:off+n]
	return a.chunk[off : off+n : off+n]
}

// hashSeed and hashMix define the one hash used by every dedup set and join
// table in the engine: FNV-style word mixing with an extra avalanche shift,
// order-sensitive, collisions resolved by value comparison at the call sites.
const hashSeed uint64 = 14695981039346656037

func hashMix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	h ^= h >> 29
	return h
}

// hashRow hashes all values of a row.
func hashRow(row Row) uint64 {
	h := hashSeed
	for _, v := range row {
		h = hashMix(h, uint64(v))
	}
	return h
}

// hashValues hashes the row values at the given indexes, in order.
func hashValues(row Row, idx []int) uint64 {
	h := hashSeed
	for _, i := range idx {
		h = hashMix(h, uint64(row[i]))
	}
	return h
}

// hashIDs hashes the triple values at the given positions, consistently with
// hashValues so build and probe sides agree.
func hashIDs(t store.Triple, pos []int) uint64 {
	h := hashSeed
	for _, p := range pos {
		h = hashMix(h, uint64(t[p]))
	}
	return h
}

func rowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (s *rowSet) len() int { return len(s.rows) }

func (s *rowSet) has(row Row) bool {
	for j := s.index.get(hashRow(row)); j != 0; j = s.next[j-1] {
		if rowsEqual(s.rows[j-1], row) {
			return true
		}
	}
	return false
}

func (s *rowSet) insert(h uint64, head int32, row Row) {
	s.rows = append(s.rows, row)
	s.next = append(s.next, head)
	s.index.put(h, int32(len(s.rows)))
}

// add inserts the row unless present, reporting whether it was new. The set
// keeps a reference: the caller must not mutate the row afterwards.
func (s *rowSet) add(row Row) bool {
	h := hashRow(row)
	head := s.index.get(h)
	for j := head; j != 0; j = s.next[j-1] {
		if rowsEqual(s.rows[j-1], row) {
			return false
		}
	}
	s.insert(h, head, row)
	return true
}

// addCopy is add for a reused scratch row: on insertion it stores (and
// returns) a private copy, so the caller may keep overwriting the scratch.
func (s *rowSet) addCopy(row Row) (Row, bool) {
	h := hashRow(row)
	head := s.index.get(h)
	for j := head; j != 0; j = s.next[j-1] {
		if rowsEqual(s.rows[j-1], row) {
			return s.rows[j-1], false
		}
	}
	cp := s.copyRow(row)
	s.insert(h, head, cp)
	return cp, true
}

// Dedup returns a relation with duplicate rows removed (first kept).
func (r *Relation) Dedup() *Relation {
	seen := newRowSet(len(r.Rows))
	out := NewRelation(r.Cols)
	for _, row := range r.Rows {
		if seen.add(row) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// SortRows orders rows lexicographically in place, for deterministic output.
func (r *Relation) SortRows() {
	sort.Slice(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// EqualAsSet reports whether two relations hold the same set of rows
// (column labels are ignored; arity must match).
func (r *Relation) EqualAsSet(other *Relation) bool {
	if r.Arity() != other.Arity() {
		return false
	}
	a := newRowSet(len(r.Rows))
	for _, row := range r.Rows {
		a.add(row)
	}
	b := newRowSet(len(other.Rows))
	for _, row := range other.Rows {
		b.add(row)
	}
	if a.len() != b.len() {
		return false
	}
	for _, row := range other.Rows {
		if !a.has(row) {
			return false
		}
	}
	return true
}

// Project returns the projection of r onto the given labels; constant labels
// project as constant columns. Output is deduplicated.
func (r *Relation) Project(cols []cq.Term) (*Relation, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		if c.IsConst() {
			idx[i] = -1
			continue
		}
		j := r.ColIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("engine: projection column %v not in %v", c, r.Cols)
		}
		idx[i] = j
	}
	out := NewRelation(cols)
	seen := newRowSet(len(r.Rows))
	nr := make(Row, len(cols))
	for _, row := range r.Rows {
		for i, j := range idx {
			if j < 0 {
				nr[i] = cols[i].ConstID()
			} else {
				nr[i] = row[j]
			}
		}
		if kept, added := seen.addCopy(nr); added {
			out.Rows = append(out.Rows, kept)
		}
	}
	return out, nil
}

// SizeBytes estimates the in-memory footprint of the relation's data
// (8 bytes per value), used by tests and reports on view storage.
func (r *Relation) SizeBytes() int { return 8 * len(r.Rows) * len(r.Cols) }
