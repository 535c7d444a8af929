package cq

import (
	"bytes"
	"sort"
	"strconv"
)

// Canonical codes: a string representation invariant under variable renaming
// and atom reordering. Two queries have the same canonical code iff they are
// identical up to a bijective variable renaming (with heads compared as
// sets). The search uses these codes to detect duplicate states — Section 5
// reports duplicate detection as essential ("our algorithm identifies such
// states as soon as they are created") — and reformulation uses them to
// deduplicate union terms.
//
// The algorithm is a branch-and-bound canonical labeling: atoms are emitted
// one at a time; at each step only the atoms whose serialization (under the
// variable numbering fixed so far, with fresh numbers assigned in position
// order) is lexicographically minimal are candidates. Because atom codes are
// prefix-free, the greedy choice is sound, and branching is needed only on
// ties (symmetries). Typical view sizes are ≤ 10–15 atoms, where this is
// fast.

// CanonicalCode returns the canonical code of the query.
func (q *Query) CanonicalCode() string {
	code, _ := canonicalize(q)
	return code
}

// CanonicalizeVars returns an equivalent query with variables renumbered
// 1..k in canonical order and atoms sorted canonically. Queries identical up
// to variable renaming canonicalize to structurally equal queries (up to
// head order, which is preserved positionally from q).
func (q *Query) CanonicalizeVars() *Query {
	_, m := canonicalize(q)
	out := q.RenameVars(m)
	sort.Slice(out.Atoms, func(i, j int) bool {
		return atomLess(out.Atoms[i], out.Atoms[j])
	})
	return out
}

func atomLess(a, b Atom) bool {
	for p := 0; p < 3; p++ {
		if a[p] != b[p] {
			return a[p] > b[p] // variables are negative: sort by canonical number ascending
		}
	}
	return false
}

type canonCtx struct {
	q    *Query
	used []bool
	// assigned lists the numbered variables in numbering order: variable
	// assigned[i] carries number i+1. Views have few variables, so lookups
	// scan this slice instead of keeping a map.
	assigned []Term

	// body holds the codes of the atoms emitted so far. Each recursion
	// level appends its chosen atom code and truncates it away on return.
	body []byte
	// cands stacks the tied candidate atoms of every recursion level.
	cands []int
	// scratch is the serialization buffer of one atom or of a full code.
	scratch []byte
	// toks holds the [start, end) offsets of head tokens inside scratch.
	toks [][2]int

	bestBody string // best body code found so far ("" = none)
	bestFull string // bestBody + head suffix
	bestMap  map[Term]Term
}

func canonicalize(q *Query) (string, map[Term]Term) {
	ctx := &canonCtx{q: q, used: make([]bool, len(q.Atoms))}
	ctx.rec(0)
	return ctx.bestFull, ctx.bestMap
}

// num returns the committed number of variable t.
func (c *canonCtx) num(t Term) (int, bool) {
	for i, a := range c.assigned {
		if a == t {
			return i + 1, true
		}
	}
	return 0, false
}

// appendAtom renders atom ai under the current numbering, assigning
// temporary numbers (without committing) to unseen variables in position
// order, and appends the code to dst.
func (c *canonCtx) appendAtom(dst []byte, ai int) []byte {
	a := c.q.Atoms[ai]
	next := len(c.assigned) + 1
	var fresh [3]Term // fresh[i] takes number next+i
	nf := 0
	dst = append(dst, '(')
	for p := 0; p < 3; p++ {
		if p > 0 {
			dst = append(dst, ',')
		}
		t := a[p]
		if t.IsConst() {
			dst = append(dst, '#')
			dst = strconv.AppendInt(dst, int64(t), 10)
			continue
		}
		n, ok := c.num(t)
		for i := 0; !ok && i < nf; i++ {
			if fresh[i] == t {
				n, ok = next+i, true
			}
		}
		if !ok {
			fresh[nf] = t
			n = next + nf
			nf++
		}
		dst = append(dst, '?')
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	return append(dst, ')')
}

// rec emits the depth-th atom: it finds the minimal next-atom code among the
// unused atoms and branches over the atoms that tie for it.
func (c *canonCtx) rec(depth int) {
	if depth == len(c.q.Atoms) {
		c.leaf()
		return
	}
	mark := len(c.body)
	base := len(c.cands)
	for ai := range c.q.Atoms {
		if c.used[ai] {
			continue
		}
		c.scratch = c.appendAtom(c.scratch[:0], ai)
		switch cmp := bytes.Compare(c.scratch, c.body[mark:]); {
		case len(c.cands) == base || cmp < 0:
			c.body = append(c.body[:mark], c.scratch...)
			c.cands = append(c.cands[:base], ai)
		case cmp == 0:
			c.cands = append(c.cands, ai)
		}
	}
	end := len(c.body)
	top := len(c.cands)
	// Prefix bound: if the body built so far plus the next code is already
	// lexicographically above the best body on the comparable prefix, no
	// completion can win. (Codes are prefix-free, so this is sound.)
	if c.bestBody != "" {
		l := min(end, len(c.bestBody))
		if string(c.body[:l]) > c.bestBody[:l] {
			c.body, c.cands = c.body[:mark], c.cands[:base]
			return
		}
	}
	for i := base; i < top; i++ {
		ai := c.cands[i]
		// Commit: assign numbers to the atom's unseen vars in position order.
		before := len(c.assigned)
		for p := 0; p < 3; p++ {
			t := c.q.Atoms[ai][p]
			if t.IsVar() {
				if _, ok := c.num(t); !ok {
					c.assigned = append(c.assigned, t)
				}
			}
		}
		c.used[ai] = true
		c.rec(depth + 1)
		c.body = c.body[:end]
		c.used[ai] = false
		c.assigned = c.assigned[:before]
	}
	c.body, c.cands = c.body[:mark], c.cands[:base]
}

// leaf scores a complete atom order against the best code so far.
func (c *canonCtx) leaf() {
	if c.bestBody != "" && string(c.body) > c.bestBody {
		return
	}
	c.scratch = c.appendHead(append(c.scratch[:0], c.body...))
	if c.bestBody == "" || string(c.body) < c.bestBody ||
		(string(c.body) == c.bestBody && string(c.scratch) < c.bestFull) {
		c.bestBody, c.bestFull = string(c.body), string(c.scratch)
		m := make(map[Term]Term, len(c.assigned))
		for i, v := range c.assigned {
			m[v] = Var(i + 1)
		}
		c.bestMap = m
	}
}

// appendHead appends the head, serialized as a sorted set under the final
// numbering. Heads are treated as sets here: two views differing only in
// head column order denote the same stored relation. Tokens sort as
// strings ("?10" before "?2").
func (c *canonCtx) appendHead(dst []byte) []byte {
	dst = append(dst, "H["...)
	start := len(dst)
	c.toks = c.toks[:0]
	for _, t := range c.q.Head {
		from := len(dst)
		switch n, ok := c.num(t); {
		case t.IsConst():
			dst = strconv.AppendInt(append(dst, '#'), int64(t), 10)
		case ok:
			dst = strconv.AppendInt(append(dst, '?'), int64(n), 10)
		default:
			// Head variable not in body: Validate rejects this, but keep
			// the code total rather than panicking mid-search.
			dst = append(dst, "?free"...)
		}
		c.toks = append(c.toks, [2]int{from, len(dst)})
	}
	tok := func(i int) []byte { return dst[c.toks[i][0]:c.toks[i][1]] }
	// Insertion sort: heads are a handful of columns.
	for i := 1; i < len(c.toks); i++ {
		for j := i; j > 0 && bytes.Compare(tok(j), tok(j-1)) < 0; j-- {
			c.toks[j], c.toks[j-1] = c.toks[j-1], c.toks[j]
		}
	}
	// Re-emit the sorted, deduplicated tokens after the unsorted ones, then
	// move them down over the unsorted ones.
	out := len(dst)
	for i := range c.toks {
		if i > 0 && bytes.Equal(tok(i), tok(i-1)) {
			continue
		}
		if len(dst) > out {
			dst = append(dst, ',')
		}
		dst = append(dst, tok(i)...)
	}
	dst = append(dst[:start], dst[out:]...)
	return append(dst, ']')
}
