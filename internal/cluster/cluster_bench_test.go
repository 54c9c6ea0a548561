package cluster

import (
	"testing"

	"repro/internal/phash"
	"repro/internal/rng"
)

// corpus builds n hashes over k templates with small in-template noise —
// the screenshot-hash workload the pipeline clusters.
func corpus(n, k int) []phash.Hash {
	src := rng.New(7)
	base := make([]phash.Hash, k)
	for i := range base {
		base[i] = phash.Hash{Hi: uint64(src.Int63()), Lo: uint64(src.Int63())}
	}
	out := make([]phash.Hash, n)
	for i := range out {
		h := base[i%k]
		for f := 0; f < src.Intn(4); f++ {
			h = h.FlipBits(src.Intn(128))
		}
		out[i] = h
	}
	return out
}

func BenchmarkDBSCANHashes1k(b *testing.B) {
	hashes := corpus(1000, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DBSCANHashes(hashes, PaperParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBSCANHashes10k(b *testing.B) {
	hashes := corpus(10000, 120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DBSCANHashes(hashes, PaperParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBSCANHashesFlat1k(b *testing.B) {
	hashes := corpus(1000, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DBSCANHashesFlat(hashes, PaperParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBSCANBruteForce1k(b *testing.B) {
	hashes := corpus(1000, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DBSCAN(hashes, phash.NormDistance, PaperParams); err != nil {
			b.Fatal(err)
		}
	}
}
