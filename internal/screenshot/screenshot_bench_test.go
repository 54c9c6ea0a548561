package screenshot

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/rng"
	"repro/internal/secamp"
)

func BenchmarkRenderFullPage(b *testing.B) {
	tmpl := secamp.NewTemplate(secamp.FakeSoftware, 0, rng.New(1))
	doc := tmpl.BuildDoc("http://x.club/l", 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Render(doc, Options{})
	}
}

func BenchmarkRenderQuarterScale(b *testing.B) {
	tmpl := secamp.NewTemplate(secamp.TechSupport, 0, rng.New(2))
	doc := tmpl.BuildDoc("http://x.club/l", 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Render(doc, Options{Width: 256, Height: 192, NoiseAmp: 2, NoiseSeed: uint64(i)})
	}
}

// BenchmarkCaptureCacheRetained measures what one capture-cache entry
// keeps alive: it hashes 4,096 distinct 42-element documents at
// 256x192 through one cache, drops the documents, and reports the live
// heap (HeapInuse after two collections) the cache holds per entry.
// bench-check gates live-B/entry; it is a byte count, not a time, so
// it runs on any host.
func BenchmarkCaptureCacheRetained(b *testing.B) {
	const entries = 4096
	tmpl := secamp.NewTemplate(secamp.FakeSoftware, 0, rng.New(1))
	urls := make([]string, entries)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://x%d.club/l", i)
	}
	var perEntry float64
	for i := 0; i < b.N; i++ {
		before := liveHeap()
		c := NewCache(0, nil)
		for j, u := range urls {
			c.Hash(tmpl.BuildDoc(u, uint64(j)), Options{Width: 256, Height: 192, NoiseAmp: 2, NoiseSeed: uint64(j)})
		}
		after := liveHeap()
		if _, misses, _ := c.Stats(); misses != entries {
			b.Fatalf("%d misses, want %d distinct captures", misses, entries)
		}
		runtime.KeepAlive(c)
		perEntry = (float64(after) - float64(before)) / entries
	}
	b.ReportMetric(perEntry, "live-B/entry")
}

// liveHeap returns HeapInuse after two collections: the first frees
// the garbage, the second the sync.Pool victim caches it left behind.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}
