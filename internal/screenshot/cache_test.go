package screenshot

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/obs"
	"repro/internal/phash"
)

// testDoc builds a small deterministic document whose content varies
// with variant.
func testDoc(variant uint64) *dom.Document {
	root := &dom.Element{Tag: "body", W: 1200, H: 900}
	root.Style.Background = 0xF0F0F0
	for i := 0; i < 6; i++ {
		v := variant*7 + uint64(i)
		child := &dom.Element{
			Tag:  "div",
			X:    int(v%11) * 40,
			Y:    int(v%7) * 90,
			W:    320,
			H:    140,
			Text: "block",
		}
		child.Style.Background = int(0x102030 + v*0x111)
		child.Style.Ink = 0x202020
		child.Style.ZIndex = int(v % 3)
		child.Style.TextSeed = v | 1
		root.Children = append(root.Children, child)
	}
	return &dom.Document{Root: root}
}

func TestCacheHashMatchesNaiveAndHits(t *testing.T) {
	reg := obs.New()
	c := NewCache(0, reg)
	opts := Options{Width: 256, Height: 192, NoiseAmp: 2, NoiseSeed: 17}
	doc := testDoc(1)

	want := phash.DHash(Render(doc, opts))
	if got := c.Hash(doc, opts); got != want {
		t.Fatalf("cold Hash = %v, want naive %v", got, want)
	}
	// Rebuilt document with identical content must hit by content address.
	if got := c.Hash(testDoc(1), opts); got != want {
		t.Fatalf("warm Hash = %v, want %v", got, want)
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if v := reg.Snapshot().Counters["capture_cache_hits_total"]; v != 1 {
		t.Fatalf("obs hit counter = %d, want 1", v)
	}

	// Different content, viewport, or seed must all miss.
	c.Hash(testDoc(2), opts)
	c.Hash(doc, Options{Width: 128, Height: 96, NoiseAmp: 2, NoiseSeed: 17})
	c.Hash(doc, Options{Width: 256, Height: 192, NoiseAmp: 2, NoiseSeed: 18})
	if _, misses, _ = c.Stats(); misses != 4 {
		t.Fatalf("misses = %d, want 4", misses)
	}
}

func TestCacheImageMatchesNaiveAndIsACopy(t *testing.T) {
	c := NewCache(0, nil)
	opts := Options{Width: 200, Height: 150, NoiseAmp: 2, NoiseSeed: 5}
	doc := testDoc(3)

	want := Render(doc, opts)
	got := c.Image(doc, opts)
	if got.W != want.W || got.H != want.H {
		t.Fatalf("size %dx%d, want %dx%d", got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("pixel byte %d differs from naive render", i)
		}
	}

	// Mutating the returned copy must not poison the cache.
	got.Pix[0] ^= 0xFF
	again := c.Image(doc, opts)
	if again.Pix[0] != want.Pix[0] {
		t.Fatalf("cache returned aliased pixels")
	}

	// Image also memoizes the hash behind the same key.
	before, _, _ := c.Stats()
	if h := c.Hash(doc, opts); h != phash.DHash(want) {
		t.Fatalf("Hash after Image = %v, want %v", h, phash.DHash(want))
	}
	after, _, _ := c.Stats()
	if after != before+1 {
		t.Fatalf("Hash after Image missed the cache")
	}
}

func TestCacheNilReceiver(t *testing.T) {
	var c *Cache
	opts := Options{Width: 64, Height: 48, NoiseAmp: 2, NoiseSeed: 9}
	doc := testDoc(4)
	if got, want := c.Hash(doc, opts), phash.DHash(Render(doc, opts)); got != want {
		t.Fatalf("nil cache Hash = %v, want %v", got, want)
	}
	img := c.Image(doc, opts)
	if img == nil || img.W != 64 {
		t.Fatalf("nil cache Image broken")
	}
	if h, m, e := c.Stats(); h != 0 || m != 0 || e != 0 {
		t.Fatalf("nil cache stats = %d/%d/%d", h, m, e)
	}
}

func TestCacheNilDocument(t *testing.T) {
	c := NewCache(0, nil)
	opts := Options{Width: 32, Height: 24, NoiseAmp: 2, NoiseSeed: 3}
	want := phash.DHash(Render(nil, opts))
	if got := c.Hash(nil, opts); got != want {
		t.Fatalf("nil doc Hash = %v, want %v", got, want)
	}
	if got := c.Hash(nil, opts); got != want {
		t.Fatalf("nil doc warm Hash = %v, want %v", got, want)
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(4, nil)
	opts := Options{Width: 32, Height: 24, NoiseAmp: 1}
	for v := uint64(0); v < 10; v++ {
		c.Hash(testDoc(v), opts)
	}
	if n := len(c.hashes); n > 4 {
		t.Fatalf("cache holds %d entries, bound is 4", n)
	}
	_, _, evictions := c.Stats()
	if evictions < 6 {
		t.Fatalf("evictions = %d, want >= 6", evictions)
	}
	// Evicted entries still produce correct (recomputed) results.
	want := phash.DHash(Render(testDoc(0), opts))
	if got := c.Hash(testDoc(0), opts); got != want {
		t.Fatalf("post-eviction Hash = %v, want %v", got, want)
	}
}

// TestCacheKeepsNoDocument checks that the cache holds nothing that
// points into a captured document: once the caller drops a document,
// its tree is collectable, whether it went through Hash or Image. A
// rebuilt, content-identical document still hits, because entries are
// keyed by content, not by tree.
func TestCacheKeepsNoDocument(t *testing.T) {
	const docs = 64
	c := NewCache(0, nil)
	hashOpts := Options{Width: 64, Height: 48, NoiseAmp: 2, NoiseSeed: 21}
	imageOpts := Options{Width: 64, Height: 48, NoiseAmp: 2, NoiseSeed: 22}
	var freed atomic.Int64
	capture := func(v uint64) {
		doc := testDoc(v)
		runtime.SetFinalizer(doc.Root, func(*dom.Element) { freed.Add(1) })
		c.Hash(doc, hashOpts)
		c.Image(doc, imageOpts)
	}
	for v := uint64(0); v < docs; v++ {
		capture(v)
	}
	for i := 0; i < 50 && freed.Load() < docs; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if n := freed.Load(); n != docs {
		t.Fatalf("%d of %d captured documents were collected; the cache pins the rest", n, docs)
	}

	_, missesBefore, _ := c.Stats()
	want := phash.DHash(Render(testDoc(7), hashOpts))
	if got := c.Hash(testDoc(7), hashOpts); got != want {
		t.Fatalf("rebuilt document Hash = %v, want %v", got, want)
	}
	if _, misses, _ := c.Stats(); misses != missesBefore {
		t.Fatalf("rebuilt content-identical document missed the cache")
	}
	runtime.KeepAlive(c)
}

// TestCacheConcurrentDeterministic exercises the shared-across-workers
// contract under the race detector: many goroutines hitting overlapping
// keys must all observe exactly the naive result.
func TestCacheConcurrentDeterministic(t *testing.T) {
	c := NewCache(0, obs.New())
	opts := Options{Width: 160, Height: 120, NoiseAmp: 2, NoiseSeed: 11}
	const variants = 4
	want := make([]phash.Hash, variants)
	for v := 0; v < variants; v++ {
		want[v] = phash.DHash(Render(testDoc(uint64(v)), opts))
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				v := (g + i) % variants
				if got := c.Hash(testDoc(uint64(v)), opts); got != want[v] {
					errs <- "hash mismatch under concurrency"
					return
				}
				if i%6 == 0 {
					img := c.Image(testDoc(uint64(v)), opts)
					if phash.DHash(img) != want[v] {
						errs <- "image mismatch under concurrency"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal(msg)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := DocFingerprint(testDoc(1))
	if base != DocFingerprint(testDoc(1)) {
		t.Fatalf("fingerprint not deterministic")
	}
	if base == DocFingerprint(testDoc(2)) {
		t.Fatalf("distinct docs share a fingerprint")
	}
	mut := testDoc(1)
	mut.Root.Children[0].Text = "blocks"
	if base == DocFingerprint(mut) {
		t.Fatalf("text change not reflected in fingerprint")
	}
	mut2 := testDoc(1)
	mut2.Root.Children[0].Style.ZIndex++
	if base == DocFingerprint(mut2) {
		t.Fatalf("z-index change not reflected in fingerprint")
	}
	if (DocFingerprint(nil) != Fingerprint{}) {
		t.Fatalf("nil doc fingerprint not zero")
	}
}
