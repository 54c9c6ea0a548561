package cluster

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/phash"
)

// DynamicIndex is a pigeonhole-partitioned Hamming index over 128-bit
// perceptual hashes that supports insertion, so the incremental
// clustering engine (internal/campstore) absorbs new observations
// without a rebuild, and batch clustering (ClusterHashes) inserts a
// whole corpus and then probes it.
//
// The 128-bit dhash is split into m contiguous bands. For two hashes
// within maxBits of each other, at least one band must differ by at
// most tol = ⌊maxBits/m⌋ bits (pigeonhole: if every band differed by
// tol+1 or more, the total distance would be at least m·(tol+1) >
// maxBits). A probe therefore looks up, per band, the buckets of every
// band value within tol bit flips of the query's band value, and
// verifies only those candidates with a full Hamming distance
// computation — one per *distinct candidate*, so the marginal cost of
// an insert scales with the density around the new hash, not with the
// corpus. With the paper's eps=0.1 (12 bits) the index uses 13 bands
// with tol=0: 13 exact bucket lookups per probe.
//
// # Concurrency
//
// DynamicIndex is safe for concurrent use behind one RWMutex: Insert
// takes the write lock, and ProbeNeighbours, Lookup, Hash and Len take
// the read lock, so concurrent probes share the index. The campaign
// store is the index's only incremental writer and it inserts and
// probes one hash at a time under its own writer lock, so an ε-edge is
// found exactly once, by the probe of the newer hash. The query
// counters are atomics, with a per-band probe counter feeding
// cluster_index_shard_probes_total.
type DynamicIndex struct {
	maxBits int
	tol     int
	specs   []bandSpec

	mu      sync.RWMutex
	buckets []map[uint64][]int32 // per band: band value -> distinct ids
	byHash  map[phash.Hash]int32
	hashes  []phash.Hash // distinct hashes by id

	bandProbes            []atomic.Int64
	candidates, distCalls atomic.Int64

	scratchMu sync.Mutex
	scratch   []*probeScratch // idle probe scratches
}

// bandSpec is one contiguous bit span [Off, Off+Width) of the 128-bit
// hash (bit i reads from Hi for i < 64, from Lo above).
type bandSpec struct{ Off, Width uint }

// MaxBands caps the band count; beyond ~16 bands the per-band bucket
// values get too short and every bucket collides.
const MaxBands = 16

// bandsFor picks the band count for a bit radius: maxBits+1 bands give
// tol=0 (exact band probes); capped at MaxBands, floored at 2 so each
// band value fits a uint64.
func bandsFor(maxBits int) int {
	return max(2, min(maxBits+1, MaxBands))
}

// bandLayout splits the 128 hash bits into m contiguous bands, the
// first 128 mod m of them one bit wider.
func bandLayout(m int) []bandSpec {
	specs := make([]bandSpec, m)
	base, extra := phash.Bits/m, phash.Bits%m
	off := uint(0)
	for b := range specs {
		w := uint(base)
		if b < extra {
			w++
		}
		specs[b] = bandSpec{Off: off, Width: w}
		off += w
	}
	return specs
}

// bandValue extracts the band's bits from the 128-bit concatenation
// Hi||Lo (bit 0 = lowest bit of Hi, bit 64 = lowest bit of Lo).
func bandValue(h phash.Hash, b bandSpec) uint64 {
	var v uint64
	if b.Off < 64 {
		v = h.Hi >> b.Off
		if b.Off+b.Width > 64 {
			v |= h.Lo << (64 - b.Off)
		}
	} else {
		v = h.Lo >> (b.Off - 64)
	}
	if b.Width < 64 {
		v &= (1 << b.Width) - 1
	}
	return v
}

// enumBand calls emit for every value within tol bit flips of v
// (including v itself), each exactly once.
func enumBand(v uint64, width uint, tol int, emit func(uint64)) {
	emit(v)
	if tol <= 0 {
		return
	}
	var rec func(v uint64, start uint, left int)
	rec = func(v uint64, start uint, left int) {
		for p := start; p < width; p++ {
			fv := v ^ (1 << p)
			emit(fv)
			if left > 1 {
				rec(fv, p+1, left-1)
			}
		}
	}
	rec(v, 0, tol)
}

// NewDynamicIndex builds an empty index for a normalised eps (fraction
// of the 128 hash bits), with bandsFor bands at that bit radius.
func NewDynamicIndex(eps float64) *DynamicIndex {
	maxBits := int(eps * float64(phash.Bits))
	specs := bandLayout(bandsFor(maxBits))
	x := &DynamicIndex{
		maxBits:    maxBits,
		tol:        maxBits / len(specs),
		specs:      specs,
		buckets:    make([]map[uint64][]int32, len(specs)),
		byHash:     map[phash.Hash]int32{},
		bandProbes: make([]atomic.Int64, len(specs)),
	}
	for b := range x.buckets {
		x.buckets[b] = map[uint64][]int32{}
	}
	return x
}

// MaxBits returns eps expressed in raw hash bits.
func (x *DynamicIndex) MaxBits() int { return x.maxBits }

// Bands returns the number of bands.
func (x *DynamicIndex) Bands() int { return len(x.specs) }

// Len returns the number of distinct hashes indexed.
func (x *DynamicIndex) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.hashes)
}

// Hash returns the distinct hash with id d. d must come from Lookup,
// Insert, Add or a probe result.
func (x *DynamicIndex) Hash(d int32) phash.Hash {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.hashes[d]
}

// Lookup returns the id of h if it is already indexed.
func (x *DynamicIndex) Lookup(h phash.Hash) (int32, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	id, ok := x.byHash[h]
	return id, ok
}

// Insert indexes h in every band bucket if it is new, and returns its
// id. A known hash returns its existing id with isNew=false.
func (x *DynamicIndex) Insert(h phash.Hash) (id int32, isNew bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if id, ok := x.byHash[h]; ok {
		return id, false
	}
	id = int32(len(x.hashes))
	x.hashes = append(x.hashes, h)
	x.byHash[h] = id
	for b, spec := range x.specs {
		v := bandValue(h, spec)
		x.buckets[b][v] = append(x.buckets[b][v], id)
	}
	return id, true
}

// ProbeStats reports what one probe cost.
type ProbeStats struct {
	Probes        int64 // bucket lookups across bands
	Candidates    int64 // distinct candidates examined
	DistanceCalls int64 // full Hamming verifications
}

// probeScratch is per-probe state: a stamp array deduplicating
// candidates across bands without per-probe allocation (mark[id] ==
// stamp once id was seen by the current probe), plus the candidate list.
// The mark array is sized to the index, so each index keeps its idle
// scratches itself: a sync.Pool drops them at every GC, and the next
// probe would then pay O(index) bytes to rebuild one.
type probeScratch struct {
	mark  []uint32
	stamp uint32
	ids   []int32
}

// getScratch takes an idle scratch (or a new one) and readies it for
// a probe over n indexed hashes.
func (x *DynamicIndex) getScratch(n int) *probeScratch {
	x.scratchMu.Lock()
	var sc *probeScratch
	if k := len(x.scratch); k > 0 {
		sc, x.scratch = x.scratch[k-1], x.scratch[:k-1]
	}
	x.scratchMu.Unlock()
	if sc == nil {
		sc = &probeScratch{}
	}
	if n > len(sc.mark) {
		if n <= cap(sc.mark) {
			sc.mark = sc.mark[:n] // cells past the old length were never written
		} else {
			// Geometric growth keeps the array's cost O(1) per insert.
			mark := make([]uint32, n, n+n/2)
			copy(mark, sc.mark)
			sc.mark = mark
		}
	}
	sc.stamp++
	if sc.stamp == 0 { // wrapped: stale marks could alias the new stamp
		clear(sc.mark)
		sc.stamp = 1
	}
	sc.ids = sc.ids[:0]
	return sc
}

func (x *DynamicIndex) putScratch(sc *probeScratch) {
	x.scratchMu.Lock()
	x.scratch = append(x.scratch, sc)
	x.scratchMu.Unlock()
}

// collect appends every id of bucket not yet seen by this probe (and
// not self) to sc.ids.
func (sc *probeScratch) collect(bucket []int32, self int32) {
	for _, cd := range bucket {
		if cd == self || sc.mark[cd] == sc.stamp {
			continue
		}
		sc.mark[cd] = sc.stamp
		sc.ids = append(sc.ids, cd)
	}
}

// ProbeNeighbours returns the ids of every indexed distinct hash within
// maxBits of h, ascending, excluding self (pass self = -1 when h is not
// indexed, or to have h's own id verified and returned too). It walks
// the bands serially under the read lock, keeping the first sighting of
// every candidate, then verifies each distinct candidate with one full
// Hamming distance call.
func (x *DynamicIndex) ProbeNeighbours(h phash.Hash, self int32) ([]int32, ProbeStats) {
	var st ProbeStats
	x.mu.RLock()
	sc := x.getScratch(len(x.hashes))
	for b, spec := range x.specs {
		var lookups int64
		enumBand(bandValue(h, spec), spec.Width, x.tol, func(pv uint64) {
			lookups++
			sc.collect(x.buckets[b][pv], self)
		})
		x.bandProbes[b].Add(lookups)
		st.Probes += lookups
	}

	// Verify each distinct candidate once, filtering sc.ids in place.
	st.Candidates = int64(len(sc.ids))
	st.DistanceCalls = st.Candidates
	w := 0
	for _, cd := range sc.ids {
		if phash.Distance(h, x.hashes[cd]) <= x.maxBits {
			sc.ids[w] = cd
			w++
		}
	}
	x.mu.RUnlock()
	var nbrs []int32
	if w > 0 {
		nbrs = slices.Clone(sc.ids[:w])
		slices.Sort(nbrs)
	}
	x.putScratch(sc)

	x.candidates.Add(st.Candidates)
	x.distCalls.Add(st.DistanceCalls)
	return nbrs, st
}

// Add inserts h and returns its id plus the ids of every previously
// indexed distinct hash within maxBits (ascending, excluding h itself).
// If h is already indexed the existing id is returned with a nil
// neighbour slice and isNew=false — re-observations of a known hash
// cost one map lookup and zero distance calls. Of two overlapping Adds
// of ε-close hashes, the one whose probe runs second reports the other.
func (x *DynamicIndex) Add(h phash.Hash) (id int32, neighbours []int32, isNew bool) {
	id, isNew = x.Insert(h)
	if !isNew {
		return id, nil, false
	}
	neighbours, _ = x.ProbeNeighbours(h, id)
	return id, neighbours, true
}

// DynamicIndexStats snapshots the index shape and query counters.
type DynamicIndexStats struct {
	Distinct      int
	Bands         int
	Tolerance     int
	Probes        int64   // bucket lookups performed (all bands)
	Candidates    int64   // distinct candidates examined (pre-verification)
	DistanceCalls int64   // full Hamming verifications
	ShardProbes   []int64 // bucket lookups per band
}

// Stats returns the current counters.
func (x *DynamicIndex) Stats() DynamicIndexStats {
	st := DynamicIndexStats{
		Distinct:      x.Len(),
		Bands:         len(x.specs),
		Tolerance:     x.tol,
		Candidates:    x.candidates.Load(),
		DistanceCalls: x.distCalls.Load(),
		ShardProbes:   make([]int64, len(x.specs)),
	}
	for b := range x.bandProbes {
		p := x.bandProbes[b].Load()
		st.ShardProbes[b] = p
		st.Probes += p
	}
	return st
}

// DistanceCalls reports the full Hamming verifications performed so far.
func (x *DynamicIndex) DistanceCalls() int64 { return x.distCalls.Load() }
