// Package reason implements RDF entailment for the RDFS fragment of Table 1:
// database saturation and the paper's novel query reformulation algorithm
// (Algorithm 1), together with the schema encoding both rely on.
//
// Following the DL fragment of RDF that the paper's reasoning targets
// (Section 7), the schema (Tbox) is kept separate from the dataset (Abox):
// Saturate adds the implicit *data* triples entailed by the schema, and
// Reformulate rewrites queries so that evaluating them on the original
// dataset returns the answers they would have on the saturated one
// (Theorem 4.2).
package reason

import (
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

// Schema is an RDFS schema encoded against a dictionary, with both the
// direct statement maps used by Reformulate (Algorithm 1 applies statements
// of S backward, one at a time) and the transitively closed maps used by
// Saturate (one closed-schema pass computes the data fixpoint).
type Schema struct {
	dict *dict.Dictionary
	src  *rdf.Schema

	// TypeID is the dictionary code of rdf:type.
	TypeID dict.ID

	// Direct maps, super → direct subs (backward application of rules 1–2).
	subClassesOf map[dict.ID][]dict.ID
	subPropsOf   map[dict.ID][]dict.ID
	// Direct maps, class → properties with that domain/range (rules 3–4).
	domainProps map[dict.ID][]dict.ID
	rangeProps  map[dict.ID][]dict.ID

	// Closed maps for saturation: sub → all supers, property → all
	// domain/range classes (including inherited and propagated ones).
	superClasses map[dict.ID][]dict.ID
	superProps   map[dict.ID][]dict.ID
	domainsOf    map[dict.ID][]dict.ID
	rangesOf     map[dict.ID][]dict.ID

	// All classes and properties of S, sorted by ID (rules 5–6).
	Classes    []dict.ID
	Properties []dict.ID
}

// NewSchema encodes an rdf.Schema against the dictionary.
func NewSchema(src *rdf.Schema, d *dict.Dictionary) *Schema {
	s := &Schema{
		dict:         d,
		src:          src,
		TypeID:       d.EncodeIRI(rdf.RDFType),
		subClassesOf: map[dict.ID][]dict.ID{},
		subPropsOf:   map[dict.ID][]dict.ID{},
		domainProps:  map[dict.ID][]dict.ID{},
		rangeProps:   map[dict.ID][]dict.ID{},
		superClasses: map[dict.ID][]dict.ID{},
		superProps:   map[dict.ID][]dict.ID{},
		domainsOf:    map[dict.ID][]dict.ID{},
		rangesOf:     map[dict.ID][]dict.ID{},
	}
	for _, st := range src.Statements() {
		l, r := d.EncodeIRI(st.Left), d.EncodeIRI(st.Right)
		switch st.Kind {
		case rdf.SubClass:
			s.subClassesOf[r] = appendUnique(s.subClassesOf[r], l)
		case rdf.SubProperty:
			s.subPropsOf[r] = appendUnique(s.subPropsOf[r], l)
		case rdf.Domain:
			s.domainProps[r] = appendUnique(s.domainProps[r], l)
		case rdf.Range:
			s.rangeProps[r] = appendUnique(s.rangeProps[r], l)
		}
	}
	closed := src.Closure()
	for _, st := range closed.Statements() {
		l, r := d.EncodeIRI(st.Left), d.EncodeIRI(st.Right)
		switch st.Kind {
		case rdf.SubClass:
			s.superClasses[l] = appendUnique(s.superClasses[l], r)
		case rdf.SubProperty:
			s.superProps[l] = appendUnique(s.superProps[l], r)
		case rdf.Domain:
			s.domainsOf[l] = appendUnique(s.domainsOf[l], r)
		case rdf.Range:
			s.rangesOf[l] = appendUnique(s.rangesOf[l], r)
		}
	}
	for _, c := range src.Classes() {
		s.Classes = append(s.Classes, d.EncodeIRI(c))
	}
	for _, p := range src.Properties() {
		s.Properties = append(s.Properties, d.EncodeIRI(p))
	}
	return s
}

// Source returns the string-level schema this encoding was built from.
func (s *Schema) Source() *rdf.Schema { return s.src }

// Dict returns the dictionary the schema is encoded against.
func (s *Schema) Dict() *dict.Dictionary { return s.dict }

// Len returns |S|, the number of schema statements (Theorem 4.1's measure).
func (s *Schema) Len() int { return s.src.Len() }

// SubClassesOf returns the direct subclasses of class c.
func (s *Schema) SubClassesOf(c dict.ID) []dict.ID { return s.subClassesOf[c] }

// SubPropertiesOf returns the direct subproperties of property p.
func (s *Schema) SubPropertiesOf(p dict.ID) []dict.ID { return s.subPropsOf[p] }

// DomainPropertiesOf returns the properties declared with domain c.
func (s *Schema) DomainPropertiesOf(c dict.ID) []dict.ID { return s.domainProps[c] }

// RangePropertiesOf returns the properties declared with range c.
func (s *Schema) RangePropertiesOf(c dict.ID) []dict.ID { return s.rangeProps[c] }

// Saturate returns a new store containing db plus every implicit data triple
// entailed by the schema (Section 4.2, "database saturation"). The original
// store is not modified; the two stores share a dictionary.
//
// Because the schema maps used here are transitively closed (including
// domain/range inheritance along subPropertyOf and propagation up
// subClassOf), a single pass over the explicit triples reaches the fixpoint:
// every derived triple's own consequences are already direct consequences of
// some explicit triple under the closed schema.
//
// The derived triples are inserted into the copy as one batch, in derivation
// order (a triple already present is dropped), so each shard of the copy
// merges its indexes once however many triples are derived.
func Saturate(db *store.Store, s *Schema) *store.Store {
	var derived []store.Triple
	for _, t := range db.Triples() {
		sub, p, o := t[store.S], t[store.P], t[store.O]
		if p == s.TypeID {
			for _, c := range s.superClasses[o] {
				derived = append(derived, store.Triple{sub, s.TypeID, c})
			}
			continue
		}
		for _, p2 := range s.superProps[p] {
			derived = append(derived, store.Triple{sub, p2, o})
		}
		for _, c := range s.domainsOf[p] {
			derived = append(derived, store.Triple{sub, s.TypeID, c})
		}
		for _, c := range s.rangesOf[p] {
			derived = append(derived, store.Triple{o, s.TypeID, c})
		}
	}
	out := db.Clone()
	out.AddBatch(derived)
	return out
}

// EntailedTripleBound returns the O(|D|·|S|) bound on the number of implicit
// triples discussed in Section 6.5: each explicit triple can entail at most
// one triple per schema statement under the Table 1 rules.
func EntailedTripleBound(db *store.Store, s *Schema) int {
	return db.Len() * s.Len()
}

func appendUnique(xs []dict.ID, x dict.ID) []dict.ID {
	for _, y := range xs {
		if y == x {
			return xs
		}
	}
	return append(xs, x)
}

// typeAtomClass extracts (subjectTerm, classID, true) when the atom has the
// form t(s, rdf:type, c) with constant class c.
func (s *Schema) typeAtomClass(a cq.Atom) (cq.Term, dict.ID, bool) {
	if !a[1].IsConst() || a[1].ConstID() != s.TypeID {
		return 0, 0, false
	}
	if !a[2].IsConst() {
		return 0, 0, false
	}
	return a[0], a[2].ConstID(), true
}
