package datagen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"rdfviews/internal/rdf"
	"rdfviews/internal/reason"
	"rdfviews/internal/store"
)

func TestGenerateSchemaBartonScale(t *testing.T) {
	s := GenerateSchema(Config{})
	if s.Len() != 106 {
		t.Errorf("schema statements = %d, want 106", s.Len())
	}
	// Every class/property index must stay within the configured counts.
	if got := len(s.Classes()); got == 0 || got > 39 {
		t.Errorf("classes = %d, want (0,39]", got)
	}
	if got := len(s.Properties()); got == 0 || got > 61 {
		t.Errorf("properties = %d, want (0,61]", got)
	}
	// The hierarchy must have depth: the closure must be strictly larger.
	if c := s.Closure(); c.Len() <= s.Len() {
		t.Errorf("closure added nothing: %d <= %d", c.Len(), s.Len())
	}
}

func TestGenerateDataset(t *testing.T) {
	st, schema := Generate(Config{Triples: 3000, Seed: 7})
	if st.Len() != 3000 {
		t.Fatalf("triples = %d", st.Len())
	}
	if schema.Len() != 106 {
		t.Fatalf("schema = %d statements", schema.Len())
	}
	typeID, ok := st.Dict().LookupIRI(rdf.RDFType)
	if !ok {
		t.Fatal("rdf:type missing from dictionary")
	}
	typeCount := st.Count(store.Pattern{store.Wildcard, typeID, store.Wildcard})
	frac := float64(typeCount) / float64(st.Len())
	if frac < 0.10 || frac > 0.35 {
		t.Errorf("type-triple fraction = %v, want ≈0.20", frac)
	}
	// Zipf skew: the most frequent property should dominate the median one.
	maxCount, nonZero := 0, 0
	for i := 0; i < 61; i++ {
		id, ok := st.Dict().LookupIRI(PropName(i))
		if !ok {
			continue
		}
		c := st.Count(store.Pattern{store.Wildcard, id, store.Wildcard})
		if c > 0 {
			nonZero++
		}
		if c > maxCount {
			maxCount = c
		}
	}
	if nonZero < 30 {
		t.Errorf("only %d properties used", nonZero)
	}
	if maxCount < st.Len()/61 {
		t.Errorf("no skew: max property count %d", maxCount)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(Config{Triples: 500, Seed: 42})
	b, _ := Generate(Config{Triples: 500, Seed: 42})
	if a.Len() != b.Len() {
		t.Fatal("sizes differ")
	}
	at, bt := a.Triples(), b.Triples()
	for i := range at {
		if at[i] != bt[i] {
			t.Fatalf("triple %d differs", i)
		}
	}
}

func TestGeneratedSchemaSupportsReasoning(t *testing.T) {
	st, sch := Generate(Config{Triples: 1000, Seed: 3})
	schema := reason.NewSchema(sch, st.Dict())
	sat := reason.Saturate(st, schema)
	if sat.Len() <= st.Len() {
		t.Errorf("saturation added no implicit triples: %d -> %d", st.Len(), sat.Len())
	}
	bound := reason.EntailedTripleBound(st, schema)
	if sat.Len()-st.Len() > bound {
		t.Errorf("implicit triples %d exceed O(|D|·|S|) bound %d", sat.Len()-st.Len(), bound)
	}
}

// tripleDigest hashes the store's triple sequence: each triple's IDs and
// decoded terms, in Triples() order. Equal digests mean the same triples,
// the same dictionary encoding and the same insertion order, which is what
// persisted images and seeded fixtures depend on.
func tripleDigest(st *store.Store) string {
	h := sha256.New()
	d := st.Dict()
	for _, tr := range st.Triples() {
		fmt.Fprintf(h, "%d %d %d %v %v %v\n", tr[store.S], tr[store.P], tr[store.O],
			d.MustDecode(tr[store.S]), d.MustDecode(tr[store.P]), d.MustDecode(tr[store.O]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGoldenSequence pins the generated triple sequence for two
// seeds. The digests were recorded from the per-triple generator that
// preceded the batched one, so a change to the RNG draw order, the dedup
// rule or the insertion order fails here.
func TestGenerateGoldenSequence(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want string
	}{
		{1, "71725039a5c6abca615f81076f7e730449168a8486f6da7b19a0bb26a38345b1"},
		{7, "b4becd09d8e46739af4e491f5d56cfe075969af2476a0979d26041a5698c85ae"},
	} {
		st, _ := Generate(Config{Triples: 10000, Seed: c.seed})
		if st.Len() != 10000 {
			t.Fatalf("seed %d: triples = %d", c.seed, st.Len())
		}
		if got := tripleDigest(st); got != c.want {
			t.Errorf("seed %d: triple digest = %s, want %s", c.seed, got, c.want)
		}
	}
}
