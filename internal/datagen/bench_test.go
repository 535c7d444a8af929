package datagen

import "testing"

// BenchmarkGenerate builds a 10k-triple Barton-like store, the size the
// repo's end-to-end benchmark generates at set-up.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, _ := Generate(Config{Triples: 10000, Seed: 1})
		if st.Len() != 10000 {
			b.Fatalf("triples = %d", st.Len())
		}
	}
}
