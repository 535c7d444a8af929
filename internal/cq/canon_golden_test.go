package cq

import (
	"fmt"
	"testing"
)

// Canonical codes key state deduplication, the cost model's caches and
// reformulation deduplication, so their bytes are pinned here. The queries
// are written with explicit term numbers (c(n) is constant n, x(n) variable
// n), so their codes do not depend on a dictionary.
func goldenCanonQueries() []struct {
	name string
	q    *Query
} {
	c := func(n int64) Term { return Term(n) }
	x := func(n int) Term { return Var(n) }
	return []struct {
		name string
		q    *Query
	}{
		{"triple table", &Query{Head: []Term{x(1), x(2), x(3)}, Atoms: []Atom{{x(1), x(2), x(3)}}}},
		{"constants", &Query{Head: []Term{x(4)}, Atoms: []Atom{{x(4), c(7), c(12)}}}},
		{"repeated variable in atom", &Query{Head: []Term{x(9)}, Atoms: []Atom{{x(9), c(3), x(9)}}}},
		{"repeated second variable", &Query{Head: []Term{x(3)}, Atoms: []Atom{{x(3), x(5), x(5)}}}},
		{"all repeated", &Query{Head: []Term{x(2)}, Atoms: []Atom{{x(2), x(2), x(2)}}}},
		{"chain", &Query{Head: []Term{x(1), x(3)}, Atoms: []Atom{{x(1), c(1), c(2)}, {x(1), c(3), x(2)}, {x(2), c(1), x(3)}}}},
		{"chain reordered", &Query{Head: []Term{x(30), x(10)}, Atoms: []Atom{{x(20), c(1), x(30)}, {x(10), c(3), x(20)}, {x(10), c(1), c(2)}}}},
		{"symmetric 3-cycle", &Query{Head: []Term{x(1)}, Atoms: []Atom{{x(1), c(5), x(2)}, {x(2), c(5), x(3)}, {x(3), c(5), x(1)}}}},
		{"symmetric star", &Query{Head: []Term{x(1)}, Atoms: []Atom{{x(1), c(5), x(2)}, {x(1), c(5), x(3)}, {x(1), c(5), x(4)}}}},
		{"symmetric 4-cycle two properties", &Query{Head: []Term{x(1), x(3)}, Atoms: []Atom{{x(1), c(5), x(2)}, {x(2), c(6), x(3)}, {x(3), c(5), x(4)}, {x(4), c(6), x(1)}}}},
		{"head not in body", &Query{Head: []Term{x(1), x(8)}, Atoms: []Atom{{x(1), c(5), x(2)}}}},
		{"constant in head", &Query{Head: []Term{c(42), x(1)}, Atoms: []Atom{{x(1), c(5), c(42)}}}},
		{"duplicate head terms", &Query{Head: []Term{x(2), x(1), x(2)}, Atoms: []Atom{{x(1), c(5), x(2)}}}},
		{"boolean", &Query{Atoms: []Atom{{x(1), c(5), c(6)}, {x(1), c(7), x(2)}}}},
		{"many variables", &Query{Head: []Term{x(12), x(2), x(7), x(11)}, Atoms: []Atom{
			{x(1), c(2), x(2)}, {x(2), c(2), x(3)}, {x(3), c(2), x(4)}, {x(4), c(2), x(5)},
			{x(5), c(3), x(6)}, {x(6), c(3), x(7)}, {x(7), c(3), x(8)}, {x(8), c(3), x(9)},
			{x(9), c(4), x(10)}, {x(10), c(4), x(11)}, {x(11), c(4), x(12)}}}},
		{"large constants", &Query{Head: []Term{x(1)}, Atoms: []Atom{{x(1), c(1 << 40), c(9007199254740993)}}}},
		{"variable property", &Query{Head: []Term{x(2), x(1)}, Atoms: []Atom{{x(1), x(2), c(8)}, {x(3), x(2), x(1)}}}},
	}
}

// goldenCanon holds, per query of goldenCanonQueries, its canonical code and
// the head and atoms of CanonicalizeVars.
var goldenCanon = []struct{ name, code, vars string }{
	{"triple table", "(?1,?2,?3)H[?1,?2,?3]", "[X1 X2 X3] [[X1 X2 X3]]"},
	{"constants", "(?1,#7,#12)H[?1]", "[X1] [[X1 #7 #12]]"},
	{"repeated variable in atom", "(?1,#3,?1)H[?1]", "[X1] [[X1 #3 X1]]"},
	{"repeated second variable", "(?1,?2,?2)H[?1]", "[X1] [[X1 X2 X2]]"},
	{"all repeated", "(?1,?1,?1)H[?1]", "[X1] [[X1 X1 X1]]"},
	{"chain", "(?1,#1,#2)(?1,#3,?2)(?2,#1,?3)H[?1,?3]", "[X1 X3] [[X1 #3 X2] [X1 #1 #2] [X2 #1 X3]]"},
	{"chain reordered", "(?1,#1,#2)(?1,#3,?2)(?2,#1,?3)H[?1,?3]", "[X3 X1] [[X1 #3 X2] [X1 #1 #2] [X2 #1 X3]]"},
	{"symmetric 3-cycle", "(?1,#5,?2)(?2,#5,?3)(?3,#5,?1)H[?1]", "[X1] [[X1 #5 X2] [X2 #5 X3] [X3 #5 X1]]"},
	{"symmetric star", "(?1,#5,?2)(?1,#5,?3)(?1,#5,?4)H[?1]", "[X1] [[X1 #5 X2] [X1 #5 X3] [X1 #5 X4]]"},
	{"symmetric 4-cycle two properties", "(?1,#5,?2)(?2,#6,?3)(?3,#5,?4)(?4,#6,?1)H[?1,?3]", "[X1 X3] [[X1 #5 X2] [X2 #6 X3] [X3 #5 X4] [X4 #6 X1]]"},
	{"head not in body", "(?1,#5,?2)H[?1,?free]", "[X1 X8] [[X1 #5 X2]]"},
	{"constant in head", "(?1,#5,#42)H[#42,?1]", "[#42 X1] [[X1 #5 #42]]"},
	{"duplicate head terms", "(?1,#5,?2)H[?1,?2]", "[X2 X1 X2] [[X1 #5 X2]]"},
	{"boolean", "(?1,#5,#6)(?1,#7,?2)H[]", "[] [[X1 #7 X2] [X1 #5 #6]]"},
	{"many variables", "(?1,#2,?2)(?2,#2,?3)(?3,#2,?4)(?4,#2,?5)(?5,#3,?6)(?6,#3,?7)(?7,#3,?8)(?8,#3,?9)(?10,#4,?11)(?11,#4,?12)(?9,#4,?10)H[?11,?12,?2,?7]", "[X12 X2 X7 X11] [[X1 #2 X2] [X2 #2 X3] [X3 #2 X4] [X4 #2 X5] [X5 #3 X6] [X6 #3 X7] [X7 #3 X8] [X8 #3 X9] [X9 #4 X10] [X10 #4 X11] [X11 #4 X12]]"},
	{"large constants", "(?1,#1099511627776,#9007199254740993)H[?1]", "[X1] [[X1 #1099511627776 #9007199254740993]]"},
	{"variable property", "(?1,?2,#8)(?3,?2,?1)H[?1,?2]", "[X2 X1] [[X1 X2 #8] [X3 X2 X1]]"},
}

func TestCanonicalCodeGolden(t *testing.T) {
	qs := goldenCanonQueries()
	if len(qs) != len(goldenCanon) {
		t.Fatalf("%d queries, %d golden rows", len(qs), len(goldenCanon))
	}
	for i, tc := range qs {
		want := goldenCanon[i]
		if tc.name != want.name {
			t.Fatalf("row %d: query %q against golden row %q", i, tc.name, want.name)
		}
		if got := tc.q.CanonicalCode(); got != want.code {
			t.Errorf("%s: code\n got %s\nwant %s", tc.name, got, want.code)
		}
		cv := tc.q.CanonicalizeVars()
		if got := fmt.Sprint(cv.Head, cv.Atoms); got != want.vars {
			t.Errorf("%s: CanonicalizeVars\n got %s\nwant %s", tc.name, got, want.vars)
		}
	}
}
