package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil {
		t.Fatalf("nil registry returned non-nil counter")
	}
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	r.Gauge("g").Set(7)
	r.Histogram("h").Observe(3)
	sp := r.StartSpan("s")
	if sp != nil {
		t.Fatalf("nil registry returned non-nil span")
	}
	sp.End()
	r.Timed("t", func() {})
	r.SetVirtualNow(time.Now)
	if got := r.CounterValue("x"); got != 0 {
		t.Fatalf("nil CounterValue = %d", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("reqs", "ip=residential")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	// Same name+labels resolves to the same handle.
	if r.Counter("reqs", "ip=residential") != c {
		t.Fatalf("re-resolve returned a different counter")
	}
	// Different labels are distinct series.
	r.Counter("reqs", "ip=datacenter").Add(10)
	if got := r.CounterValue("reqs", "ip=residential"); got != 4 {
		t.Fatalf("CounterValue = %d, want 4", got)
	}
	if got := r.SumCounters("reqs"); got != 14 {
		t.Fatalf("SumCounters = %d, want 14", got)
	}

	g := r.Gauge("depth")
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Value())
	}
}

func TestGaugeSetMax(t *testing.T) {
	r := New()
	g := r.Gauge("peak_bytes")
	for _, v := range []int64{4, 9, 2, 9, 7} {
		g.SetMax(v)
	}
	if g.Value() != 9 {
		t.Fatalf("high watermark = %d, want 9", g.Value())
	}
	var nilG *Gauge
	nilG.SetMax(42) // must not panic
}

func TestKey(t *testing.T) {
	if got := Key("a"); got != "a" {
		t.Fatalf("Key = %q", got)
	}
	if got := Key("a", "x=1", "y=2"); got != "a{x=1,y=2}" {
		t.Fatalf("Key = %q", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1023, 10}, {1024, 11}}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	if bucketUpper(0) != 0 || bucketUpper(1) != 1 || bucketUpper(3) != 7 {
		t.Fatalf("bucketUpper wrong: %d %d %d", bucketUpper(0), bucketUpper(1), bucketUpper(3))
	}

	h := New().Histogram("lat")
	for _, v := range []int64{0, 1, 3, 3, 100} {
		h.Observe(v)
	}
	snap := h.snapshot()
	if snap.Count != 5 || snap.Sum != 107 {
		t.Fatalf("count/sum = %d/%d", snap.Count, snap.Sum)
	}
	// Buckets: {0}:1, {1}:1, [2,3]:2, [64,127]:1
	want := []BucketCount{{0, 1}, {1, 1}, {3, 2}, {127, 1}}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", snap.Buckets)
	}
	for i, b := range want {
		if snap.Buckets[i] != b {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, snap.Buckets[i], b)
		}
	}
	if q := snap.Quantile(0.5); q != 3 {
		t.Fatalf("p50 = %d, want 3", q)
	}
	if q := snap.Quantile(0.99); q != 127 {
		t.Fatalf("p99 = %d, want 127", q)
	}
	if m := snap.Mean(); m != 107.0/5 {
		t.Fatalf("mean = %v", m)
	}
}

func TestSpanWallAndVirtualTime(t *testing.T) {
	r := New()
	// A fake virtual clock the test advances by hand.
	virt := time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	r.SetVirtualNow(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return virt
	})

	sp := r.StartSpan("milk")
	mu.Lock()
	virt = virt.Add(14 * 24 * time.Hour)
	mu.Unlock()
	sp.End()
	sp.End() // double End records once

	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	rec := spans[0]
	if rec.Name != "milk" {
		t.Fatalf("name = %q", rec.Name)
	}
	if rec.Virtual() != 14*24*time.Hour {
		t.Fatalf("virtual = %v, want 336h", rec.Virtual())
	}
	if rec.WallNS < 0 {
		t.Fatalf("negative wall duration %d", rec.WallNS)
	}
	if rec.VirtualStart == nil {
		t.Fatalf("virtual start missing")
	}
}

func TestSpanWithoutVirtualClock(t *testing.T) {
	r := New()
	r.Timed("stage", func() { time.Sleep(time.Millisecond) })
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].VirtualStart != nil || spans[0].VirtualNS != 0 {
		t.Fatalf("unexpected virtual fields: %+v", spans[0])
	}
	if spans[0].Wall() < time.Millisecond {
		t.Fatalf("wall = %v, want >= 1ms", spans[0].Wall())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.SetVirtualNow(func() time.Time { return time.Date(2019, 3, 2, 0, 0, 0, 0, time.UTC) })
	r.Counter("crawler_sessions_total", "worker=0").Add(12)
	r.Gauge("pool").Set(8)
	r.Histogram("lat_us").Observe(250)
	r.Timed("crawl", func() {})

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, buf.String())
	}
	if snap.Counters["crawler_sessions_total{worker=0}"] != 12 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if snap.Gauges["pool"] != 8 {
		t.Fatalf("gauges = %+v", snap.Gauges)
	}
	if snap.Histograms["lat_us"].Count != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
	if got := snap.SpanNames(); len(got) != 1 || got[0] != "crawl" {
		t.Fatalf("span names = %v", got)
	}
	if snap.VirtualNow == nil {
		t.Fatalf("virtual_now missing")
	}
}

func TestTextSnapshot(t *testing.T) {
	r := New()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Add(1)
	r.Gauge("g").Set(3)
	r.Histogram("h").Observe(9)
	r.Timed("stage1", func() {})
	text := r.Text()
	for _, want := range []string{"== spans ==", "stage1", "== counters ==", "a_total", "b_total", "== gauges ==", "== histograms ==", "h  count 1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text missing %q:\n%s", want, text)
		}
	}
	// Counters come out sorted.
	if strings.Index(text, "a_total") > strings.Index(text, "b_total") {
		t.Fatalf("counters not sorted:\n%s", text)
	}
}

// TestConcurrentUse exercises every path under the race detector:
// handle resolution, atomic updates, span logging and snapshotting all
// running in parallel.
func TestConcurrentUse(t *testing.T) {
	r := New()
	r.SetVirtualNow(time.Now)
	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			labels := []string{"worker=" + string(rune('a'+w))}
			for i := 0; i < iters; i++ {
				r.Counter("ops_total", labels...).Inc()
				r.Counter("shared_total").Inc()
				r.Gauge("depth").Set(int64(i))
				r.Histogram("lat").Observe(int64(i % 100))
				if i%100 == 0 {
					r.Timed("tick", func() {})
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue("shared_total"); got != workers*iters {
		t.Fatalf("shared_total = %d, want %d", got, workers*iters)
	}
	if got := r.SumCounters("ops_total"); got != workers*iters {
		t.Fatalf("ops_total sum = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("lat").Count(); got != workers*iters {
		t.Fatalf("histogram count = %d", got)
	}
}

// TestWriteFile: a nil registry or an empty path writes nothing, and a
// written file holds exactly WriteJSON's bytes (the snapshot's
// taken_at wall-clock line aside).
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nil.json")
	var nilReg *Registry
	if err := nilReg.WriteFile(path); err != nil {
		t.Fatalf("nil registry: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("nil registry created %s (stat err %v)", path, err)
	}
	r := New()
	if err := r.WriteFile(""); err != nil {
		t.Fatalf("empty path: %v", err)
	}

	r.Counter("writes_total").Add(3)
	r.Gauge("depth").Set(7)
	r.Histogram("size").Observe(42)
	path = filepath.Join(dir, "m.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := r.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	takenAt := regexp.MustCompile(`"taken_at": "[^"]*"`)
	if g, w := takenAt.ReplaceAll(got, nil), takenAt.ReplaceAll(want.Bytes(), nil); !bytes.Equal(g, w) {
		t.Fatalf("file bytes differ from WriteJSON:\n%s\nwant\n%s", g, w)
	}
}
