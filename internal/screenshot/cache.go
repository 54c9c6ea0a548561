package screenshot

import (
	"sync"
	"sync/atomic"

	"repro/internal/dom"
	"repro/internal/imaging"
	"repro/internal/obs"
	"repro/internal/phash"
)

// DefaultCacheEntries is the default capacity bound of a capture cache.
// Entries are ~50 bytes, so the default budget is a few megabytes.
const DefaultCacheEntries = 1 << 16

// captureKey content-addresses one capture: what the page looks like
// (fingerprint), at which raster size, under which noise stream.
type captureKey struct {
	fp    Fingerprint
	w, h  int32
	noise bool
	seed  uint64
}

func keyFor(fp Fingerprint, opts Options) captureKey {
	return captureKey{fp: fp, w: int32(opts.Width), h: int32(opts.Height), noise: opts.Noise, seed: opts.NoiseSeed}
}

// Cache is the pipeline's capture memo: a bounded, content-addressed
// map from (document fingerprint x viewport x noise seed) to the
// perceptual hash of the rendered screenshot. It keeps nothing that
// points into a document: a miss walks and z-sorts the DOM afresh, so
// no rendered tree outlives its capture.
//
// Results are byte-identical to the naive Render + Noise + DHash
// sequence (the fused fast path is bit-exact, see the property tests),
// so sharing one cache across worker pools cannot perturb any
// deterministic pipeline output — a hit returns exactly what a fresh
// computation would. Safe for concurrent use. A nil *Cache is valid
// and computes every capture through the uncached fused path.
type Cache struct {
	mu        sync.Mutex
	hashes    map[captureKey]phash.Hash
	hashQ     fifo[captureKey]
	maxHashes int

	hits, misses, evictions atomic.Int64

	// Pre-resolved obs handles; all nil (no-op) without a registry.
	obsHits, obsMisses, obsEvictions *obs.Counter
	obsEntries, obsPoolInUse         *obs.Gauge
	obsPoolPeak                      *obs.Gauge
	obsPoolGets, obsPoolReuses       *obs.Gauge
}

// fifo is a slice-backed queue with amortised O(1) pops.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) pop() (T, bool) {
	var zero T
	if q.head >= len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head > 64 && q.head*2 > len(q.items) {
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			var z T
			q.items[i] = z
		}
		q.items = q.items[:n]
		q.head = 0
	}
	return v, true
}

// NewCache builds a capture cache bounded to maxEntries memoized
// hashes (<= 0 selects DefaultCacheEntries). reg, when non-nil,
// receives hit/miss/eviction counters and raster-pool gauges under the
// capture_ prefix.
func NewCache(maxEntries int, reg *obs.Registry) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	return &Cache{
		hashes:    map[captureKey]phash.Hash{},
		maxHashes: maxEntries,

		obsHits:       reg.Counter("capture_cache_hits_total"),
		obsMisses:     reg.Counter("capture_cache_misses_total"),
		obsEvictions:  reg.Counter("capture_cache_evictions_total"),
		obsEntries:    reg.Gauge("capture_cache_entries"),
		obsPoolInUse:  reg.Gauge("capture_pool_in_use_bytes"),
		obsPoolPeak:   reg.Gauge("capture_pool_peak_bytes"),
		obsPoolGets:   reg.Gauge("capture_pool_gets"),
		obsPoolReuses: reg.Gauge("capture_pool_reuses"),
	}
}

// Stats reports cumulative hash-lookup traffic. Usable without an obs
// registry.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// CaptureHash renders and hashes a document through the fused fast
// path without memoization: pooled raster, freshly walked paint list,
// noise applied during luminance conversion. Bit-identical to
// phash.DHash(Render(doc, opts)).
func CaptureHash(doc *dom.Document, opts Options) phash.Hash {
	opts = normalizeFor(doc, opts)
	img := imaging.NewPooled(opts.Width, opts.Height)
	if doc != nil && doc.Root != nil {
		renderPaints(img, doc, paintList(doc))
	}
	h := phash.DHashNoisy(img, opts.Noise, opts.NoiseSeed)
	img.Release()
	return h
}

// normalizeFor resolves options the way Render effectively does:
// Render returns the blank canvas before its noise pass when the
// document is empty, so empty documents are noise-free (and all alias
// to one cache key regardless of seed).
func normalizeFor(doc *dom.Document, opts Options) Options {
	opts = opts.normalize()
	if doc == nil || doc.Root == nil {
		opts.Noise = false
		opts.NoiseSeed = 0
	}
	return opts
}

// Hash returns the perceptual hash of the document's capture,
// memoized by content address. Concurrent misses on the same key may
// compute the (identical) result twice; the cache converges on one
// entry either way.
func (c *Cache) Hash(doc *dom.Document, opts Options) phash.Hash {
	if c == nil {
		return CaptureHash(doc, opts)
	}
	opts = normalizeFor(doc, opts)
	key := keyFor(DocFingerprint(doc), opts)

	c.mu.Lock()
	if h, ok := c.hashes[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		c.obsHits.Inc()
		return h
	}
	c.mu.Unlock()

	c.misses.Add(1)
	c.obsMisses.Inc()
	h := CaptureHash(doc, opts)

	c.mu.Lock()
	c.storeHash(key, h)
	c.mu.Unlock()
	c.exportKernelStats()
	return h
}

// storeHash inserts under c.mu, evicting FIFO when the bound is
// exceeded.
func (c *Cache) storeHash(key captureKey, h phash.Hash) {
	if _, ok := c.hashes[key]; !ok {
		c.hashQ.push(key)
	}
	c.hashes[key] = h
	for len(c.hashes) > c.maxHashes {
		old, ok := c.hashQ.pop()
		if !ok {
			break
		}
		if _, present := c.hashes[old]; present {
			delete(c.hashes, old)
			c.evictions.Add(1)
			c.obsEvictions.Inc()
		}
	}
	c.obsEntries.Set(int64(len(c.hashes)))
}

// exportKernelStats publishes the imaging buffer-pool gauges that back
// the capture kernel. Called on misses (the only operations that touch
// the pools).
func (c *Cache) exportKernelStats() {
	if c.obsPoolInUse == nil && c.obsPoolPeak == nil {
		return
	}
	gets, reuses, inUse := imaging.PoolStats()
	c.obsPoolInUse.Set(inUse)
	c.obsPoolPeak.SetMax(inUse)
	c.obsPoolGets.Set(gets)
	c.obsPoolReuses.Set(reuses)
}
