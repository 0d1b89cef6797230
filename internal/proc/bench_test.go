package proc

import "testing"

// BenchmarkReadF64s measures decoding 960 float64s — one k-means chunk of
// yarn-batch's 240 four-dimensional points — out of process memory.
func BenchmarkReadF64s(b *testing.B) {
	dst := make([]float64, 960)
	m, err := NewMemory(int64(len(dst))*wordSize+PageSize, int64(len(dst))*wordSize+PageSize)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := m.ReadF64s(dst, PageSize); err != nil {
			b.Fatal(err)
		}
	}
}
