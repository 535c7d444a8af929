package reason

import (
	"testing"

	"rdfviews/internal/datagen"
	"rdfviews/internal/store"
)

// saturatePerTriple is the reference saturation: the same single pass over
// the explicit triples under the closed schema, each derived triple inserted
// by its own Store.Add.
func saturatePerTriple(db *store.Store, s *Schema) *store.Store {
	out := db.Clone()
	for _, t := range db.Triples() {
		sub, p, o := t[store.S], t[store.P], t[store.O]
		if p == s.TypeID {
			for _, c := range s.superClasses[o] {
				out.Add(store.Triple{sub, s.TypeID, c})
			}
			continue
		}
		for _, p2 := range s.superProps[p] {
			out.Add(store.Triple{sub, p2, o})
		}
		for _, c := range s.domainsOf[p] {
			out.Add(store.Triple{sub, s.TypeID, c})
		}
		for _, c := range s.rangesOf[p] {
			out.Add(store.Triple{o, s.TypeID, c})
		}
	}
	return out
}

// scanAll drains a full scan in permutation p.
func scanAll(st *store.Store, p store.Perm) []store.Triple {
	var out []store.Triple
	c := st.NewCursor(p, store.Pattern{store.Wildcard, store.Wildcard, store.Wildcard})
	for {
		t, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

func TestSaturateMatchesPerTripleReference(t *testing.T) {
	gen, sch := datagen.Generate(datagen.Config{Triples: 3000, Seed: 1})
	schema := NewSchema(sch, gen.Dict())
	for _, layout := range []struct{ subjectK, objectK int }{{1, 0}, {4, 0}, {4, 4}} {
		db := store.NewWithDictDual(gen.Dict(), layout.subjectK, layout.objectK)
		db.AddBatch(gen.Triples())
		got, want := Saturate(db, schema), saturatePerTriple(db, schema)

		if got.Len() != want.Len() || got.Len() <= db.Len() {
			t.Fatalf("layout %v: Len = %d, reference %d, explicit %d", layout, got.Len(), want.Len(), db.Len())
		}
		gt, wt := got.Triples(), want.Triples()
		for i := range wt {
			if gt[i] != wt[i] {
				t.Fatalf("layout %v: Triples()[%d] = %v, reference %v", layout, i, gt[i], wt[i])
			}
		}
		seen := map[store.Pattern]bool{}
		for _, tr := range wt {
			for _, pat := range []store.Pattern{
				{store.Wildcard, tr[store.P], store.Wildcard},
				{store.Wildcard, tr[store.P], tr[store.O]},
			} {
				if seen[pat] {
					continue
				}
				seen[pat] = true
				if g, w := got.Count(pat), want.Count(pat); g != w {
					t.Fatalf("layout %v: Count(%v) = %d, reference %d", layout, pat, g, w)
				}
			}
		}
		if layout.objectK == 0 {
			continue
		}
		// (·,p,o) counts above are served by the object replica; check it
		// also holds every triple, not just the counted ones.
		pat := store.Pattern{store.Wildcard, wt[0][store.P], wt[0][store.O]}
		if r := got.Placement().Route(store.POS, pat); r.Side != store.ObjectSide {
			t.Fatalf("layout %v: (·,p,o) routed to %v, want the object side", layout, r)
		}
		gotObj, wantObj := scanAll(got, store.OPS), scanAll(want, store.OPS)
		if len(gotObj) != len(wantObj) || len(gotObj) != want.Len() {
			t.Fatalf("layout %v: object-side scan has %d triples, reference %d, want %d",
				layout, len(gotObj), len(wantObj), want.Len())
		}
		for i := range wantObj {
			if gotObj[i] != wantObj[i] {
				t.Fatalf("layout %v: object-side scan [%d] = %v, reference %v", layout, i, gotObj[i], wantObj[i])
			}
		}
	}
}

// TestSaturateAllocsBounded guards the single-batch insert. On a 10k-triple
// store (seed 1) saturation derives 31935 new triples and measured 327
// allocations; inserting them one Add at a time published a snapshot per
// triple and measured 639380. The bound, one allocation per 20 derived
// triples (1596 here), fails deterministically on any return to per-triple
// publishing.
func TestSaturateAllocsBounded(t *testing.T) {
	db, sch := datagen.Generate(datagen.Config{Triples: 10000, Seed: 1})
	schema := NewSchema(sch, db.Dict())
	derived := Saturate(db, schema).Len() - db.Len()
	allocs := testing.AllocsPerRun(3, func() { Saturate(db, schema) })
	if bound := float64(derived / 20); allocs > bound {
		t.Errorf("Saturate: %.0f allocs for %d derived triples, bound %.0f", allocs, derived, bound)
	}
}
