package seacma

import (
	"runtime"
	"testing"
)

// liveAfterRun runs the default world's crawl half (milking skipped)
// over at most maxPubs publishers and returns the live heap
// (HeapInuse) while the Result is still held, after a full collection,
// with the run's session count.
func liveAfterRun(b *testing.B, maxPubs int) (heapInuse uint64, sessions int) {
	b.Helper()
	cfg := DefaultExperimentConfig()
	cfg.SkipMilking = true
	cfg.MaxPublishers = maxPubs
	res, err := NewExperiment(cfg).Run()
	if err != nil {
		b.Fatal(err)
	}
	// Two collections: the first frees the run's garbage, the second
	// the sync.Pool victim caches it left behind.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(res)
	return ms.HeapInuse, len(res.Sessions)
}

// BenchmarkRetainedCrawl measures what a finished crawl keeps alive per
// session: the live heap after a 150- and a 600-publisher crawl of the
// default world, each Result held, differenced and divided by the extra
// sessions. Both runs build the same world, so the difference is the
// crawl's retained state alone. bench-check gates live-B/session; it is
// a byte count, not a time, so it runs on any host.
func BenchmarkRetainedCrawl(b *testing.B) {
	var perSession float64
	var small, large int
	for i := 0; i < b.N; i++ {
		h150, s150 := liveAfterRun(b, 150)
		h600, s600 := liveAfterRun(b, 600)
		if s600 <= s150 {
			b.Fatalf("600-publisher crawl ran %d sessions, 150-publisher %d", s600, s150)
		}
		perSession = (float64(h600) - float64(h150)) / float64(s600-s150)
		small, large = s150, s600
	}
	b.ReportMetric(perSession, "live-B/session")
	b.ReportMetric(float64(small), "sessions-150")
	b.ReportMetric(float64(large), "sessions-600")
}
