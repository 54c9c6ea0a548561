package adscript

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// DefaultProgramCacheEntries bounds a program cache built with
// maxEntries <= 0. Ad-network snippets and campaign templates repeat
// heavily, so the working set is a few hundred distinct sources; the
// default leaves ample headroom at a few kilobytes per entry.
const DefaultProgramCacheEntries = 1 << 14

// SourceFingerprint is a 128-bit content address of a script source.
// Two lanes — FNV-1a and a golden-ratio multiplicative mix — keep
// accidental collisions below any realistic corpus size, matching the
// capture cache's DocFingerprint design.
type SourceFingerprint struct{ A, B uint64 }

const (
	srcFNVOffset = 14695981039346656037
	srcFNVPrime  = 1099511628211
	srcMixMult   = 0x9E3779B97F4A7C15
)

// FingerprintSource computes the content address of source.
func FingerprintSource(source string) SourceFingerprint {
	fp := SourceFingerprint{A: srcFNVOffset, B: 0x243F6A8885A308D3}
	for i := 0; i < len(source); i++ {
		fp.A = (fp.A ^ uint64(source[i])) * srcFNVPrime
		fp.B = (fp.B + uint64(source[i])) * srcMixMult
		fp.B ^= fp.B >> 29
	}
	fp.A = (fp.A ^ uint64(len(source))) * srcFNVPrime
	fp.B = (fp.B + fp.A) * srcMixMult
	fp.B ^= fp.B >> 31
	return fp
}

// ProgramCache is the compile-once memo: a bounded, content-addressed
// map from script source to its parsed *Program. Programs are immutable
// (the interpreter walks the AST read-only), so one cached Program is
// shared by every interpreter across the crawler farm and the milking
// worker pools. A hit returns exactly what a fresh Parse would, so the
// cache cannot perturb any deterministic pipeline output.
//
// Safe for concurrent use. A nil *ProgramCache is valid and parses on
// every Get. Parse failures are not cached: the error path is cold (a
// malformed script fails the page load once) and caching errors would
// complicate the bound for no measurable win.
type ProgramCache struct {
	mu       sync.Mutex
	programs map[SourceFingerprint]*Program
	order    fifoQ[SourceFingerprint]
	max      int

	hits, misses, evictions atomic.Int64

	// Pre-resolved obs handles; all nil (no-op) without a registry.
	obsHits, obsMisses, obsEvictions *obs.Counter
	obsEntries                       *obs.Gauge
	obsMemoHits, obsMemoMisses       *obs.Gauge
	obsMemoEntries                   *obs.Gauge
}

// fifoQ is a slice-backed queue with amortised O(1) pops.
type fifoQ[T any] struct {
	items []T
	head  int
}

func (q *fifoQ[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifoQ[T]) pop() (T, bool) {
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

// NewProgramCache builds a compile-once cache bounded to maxEntries
// programs (<= 0 selects DefaultProgramCacheEntries). reg, when
// non-nil, receives hit/miss/eviction counters and the decode-memo
// gauges under the script_ prefix.
func NewProgramCache(maxEntries int, reg *obs.Registry) *ProgramCache {
	if maxEntries <= 0 {
		maxEntries = DefaultProgramCacheEntries
	}
	return &ProgramCache{
		programs: map[SourceFingerprint]*Program{},
		max:      maxEntries,

		obsHits:        reg.Counter("script_parse_hits_total"),
		obsMisses:      reg.Counter("script_parse_misses_total"),
		obsEvictions:   reg.Counter("script_parse_evictions_total"),
		obsEntries:     reg.Gauge("script_cache_entries"),
		obsMemoHits:    reg.Gauge("script_decode_memo_hits"),
		obsMemoMisses:  reg.Gauge("script_decode_memo_misses"),
		obsMemoEntries: reg.Gauge("script_decode_memo_entries"),
	}
}

// Get returns the parsed program for source, compiling it at most once
// per content address. Concurrent misses on the same source may parse
// twice; the cache converges on one entry either way. A nil cache
// parses unconditionally.
func (c *ProgramCache) Get(source string) (*Program, error) {
	if c == nil {
		return Parse(source)
	}
	fp := FingerprintSource(source)

	c.mu.Lock()
	if prog, ok := c.programs[fp]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		c.obsHits.Inc()
		return prog, nil
	}
	c.mu.Unlock()

	c.misses.Add(1)
	c.obsMisses.Inc()
	prog, err := Parse(source)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	if _, ok := c.programs[fp]; !ok {
		c.order.push(fp)
	}
	c.programs[fp] = prog
	for len(c.programs) > c.max {
		old, ok := c.order.pop()
		if !ok {
			break
		}
		if _, present := c.programs[old]; present {
			delete(c.programs, old)
			c.evictions.Add(1)
			c.obsEvictions.Inc()
		}
	}
	c.obsEntries.Set(int64(len(c.programs)))
	c.mu.Unlock()
	c.exportDecodeMemo()
	return prog, nil
}

// Stats reports cumulative cache traffic. Usable without a registry.
func (c *ProgramCache) Stats() (hits, misses, evictions int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// exportDecodeMemo publishes the process-wide decode-memo gauges through
// this cache's registry. Called on misses (steady state is all hits, so
// the gauges settle quickly and cheaply).
func (c *ProgramCache) exportDecodeMemo() {
	if c.obsMemoHits == nil && c.obsMemoEntries == nil {
		return
	}
	hits, misses, entries := DecodeMemoTraffic()
	c.obsMemoHits.Set(hits)
	c.obsMemoMisses.Set(misses)
	c.obsMemoEntries.Set(entries)
}

// --- decode memo ---
//
// adnet/secamp emit every URL through EncodeString, and the scripts
// call dec() on the same payloads on every page load across hundreds of
// thousands of virtual sessions. The decode is pure — (ciphertext, key)
// fully determines the plaintext — so it is memoized process-wide in a
// bounded FIFO table. Decode errors are not cached (cold path).

const decodeMemoMax = 1 << 14

type decodeKey struct {
	enc string
	key byte
}

var (
	decodeMu                 sync.Mutex
	decodeMemo               = map[decodeKey]string{}
	decodeOrder              fifoQ[decodeKey]
	decodeHits, decodeMisses atomic.Int64
)

// decodeMemoized is DecodeString behind the process-wide memo table;
// the dec() builtin routes through it.
func decodeMemoized(enc string, key byte) (string, error) {
	k := decodeKey{enc: enc, key: key}
	decodeMu.Lock()
	if out, ok := decodeMemo[k]; ok {
		decodeMu.Unlock()
		decodeHits.Add(1)
		return out, nil
	}
	decodeMu.Unlock()

	decodeMisses.Add(1)
	out, err := DecodeString(enc, key)
	if err != nil {
		return "", err
	}

	decodeMu.Lock()
	if _, ok := decodeMemo[k]; !ok {
		decodeOrder.push(k)
	}
	decodeMemo[k] = out
	for len(decodeMemo) > decodeMemoMax {
		old, ok := decodeOrder.pop()
		if !ok {
			break
		}
		delete(decodeMemo, old)
	}
	decodeMu.Unlock()
	return out, nil
}

// DecodeMemoTraffic reports the process-wide decode-memo traffic and
// current size.
func DecodeMemoTraffic() (hits, misses, entries int64) {
	decodeMu.Lock()
	entries = int64(len(decodeMemo))
	decodeMu.Unlock()
	return decodeHits.Load(), decodeMisses.Load(), entries
}
