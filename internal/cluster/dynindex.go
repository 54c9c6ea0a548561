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
// without a rebuild, and batch clustering (ClusterHashes) registers a
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
// DynamicIndex is safe for concurrent use, and its locking is
// band-sharded: every band owns an independent bucket map behind its
// own RWMutex, so concurrent probes share each shard read-locked and a
// registration write-locks one shard at a time. The remaining shared
// state is lock-free for readers:
//
//   - the distinct-hash table is a chunked append-only store — chunks
//     are fixed arrays, the chunk directory is swapped atomically, and
//     an id obtained from a bucket (or from byHash) is always safe to
//     dereference because the hash cell is written before the id is
//     published under the band lock (or the map's internal atomics);
//   - byHash is a sync.Map, so the known-hash fast path (Lookup — zero
//     distance calls) takes no lock at all;
//   - the query counters are atomics, with an extra per-shard probe
//     counter feeding cluster_index_shard_probes_total.
//
// Only id assignment (Claim) serializes on a mutex, and it is O(1).
//
// The split lifecycle — Claim (assign id), Register (publish into every
// band bucket), ProbeNeighbours (walk the shards, dedup, verify once
// each) — is what the campaign store's staged ingest builds on. The
// discovery guarantee it relies on: if every caller completes
// Register(h) before calling ProbeNeighbours(h), then for any two
// hashes within maxBits at least one of the two probes finds the other,
// regardless of interleaving. Proof sketch: take any band b both hashes
// fall into within tol (pigeonhole: one exists). The band-b lock
// serializes each hash's insert-then-read; if neither probe saw the
// other, each read preceded the other's insert, giving the cycle
// read_a < insert_b < read_b < insert_a < read_a — impossible.
// The compatibility Add keeps the claim→register→probe order, so
// plain concurrent Adds inherit the guarantee.
type DynamicIndex struct {
	maxBits int
	tol     int
	specs   []bandSpec
	shards  []indexShard

	claimMu sync.Mutex // serializes id assignment + distinct append
	byHash  sync.Map   // phash.Hash -> int32
	hashes  hashTable

	candidates, distCalls atomic.Int64
}

// indexShard is one band's buckets plus its share of the probe counter.
type indexShard struct {
	mu      sync.RWMutex
	buckets map[uint64][]int32
	probes  atomic.Int64
}

// hashChunkBits sizes the chunks of the append-only distinct-hash
// table: 1024 hashes (16 KiB) per chunk.
const hashChunkBits = 10

type hashChunk [1 << hashChunkBits]phash.Hash

// hashTable is the chunked append-only distinct-hash store. Appends are
// serialized by the index's claimMu; reads are lock-free. A reader may
// only dereference ids it obtained from a published source (a band
// bucket or byHash) — publication orders the cell write before the id
// becomes visible.
type hashTable struct {
	chunks atomic.Pointer[[]*hashChunk]
	n      atomic.Int64
}

func (t *hashTable) at(i int32) phash.Hash {
	return (*t.chunks.Load())[i>>hashChunkBits][i&(1<<hashChunkBits-1)]
}

// append stores h and returns its id. Caller must hold claimMu.
func (t *hashTable) append(h phash.Hash) int32 {
	i := t.n.Load()
	ci, off := int(i>>hashChunkBits), i&(1<<hashChunkBits-1)
	chunks := t.chunks.Load()
	if chunks == nil || ci == len(*chunks) {
		var next []*hashChunk
		if chunks != nil {
			next = append(next, *chunks...)
		}
		next = append(next, new(hashChunk))
		t.chunks.Store(&next)
		chunks = &next
	}
	(*chunks)[ci][off] = h
	t.n.Store(i + 1)
	return int32(i)
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
		maxBits: maxBits,
		tol:     maxBits / len(specs),
		specs:   specs,
		shards:  make([]indexShard, len(specs)),
	}
	for b := range x.shards {
		x.shards[b].buckets = map[uint64][]int32{}
	}
	return x
}

// MaxBits returns eps expressed in raw hash bits.
func (x *DynamicIndex) MaxBits() int { return x.maxBits }

// Bands returns the number of band shards.
func (x *DynamicIndex) Bands() int { return len(x.shards) }

// Len returns the number of distinct hashes indexed (claimed ids;
// registration may still be in flight for the newest ones).
func (x *DynamicIndex) Len() int { return int(x.hashes.n.Load()) }

// Hash returns the distinct hash with id d. d must come from Lookup,
// Claim, Add or a probe result.
func (x *DynamicIndex) Hash(d int32) phash.Hash { return x.hashes.at(d) }

// Lookup returns the id of h if it is already claimed. Lock-free.
func (x *DynamicIndex) Lookup(h phash.Hash) (int32, bool) {
	if v, ok := x.byHash.Load(h); ok {
		return v.(int32), true
	}
	return 0, false
}

// Claim assigns an id to h if it has none, without touching the band
// buckets. The caller that wins the claim (isNew) must Register the
// hash before probing for it; losers share the winner's id.
func (x *DynamicIndex) Claim(h phash.Hash) (id int32, isNew bool) {
	if v, ok := x.byHash.Load(h); ok {
		return v.(int32), false
	}
	x.claimMu.Lock()
	defer x.claimMu.Unlock()
	if v, ok := x.byHash.Load(h); ok {
		return v.(int32), false
	}
	id = x.hashes.append(h)
	x.byHash.Store(h, id)
	return id, true
}

// Register publishes a claimed hash into every band bucket, one shard
// write-lock at a time. Must be called exactly once per claimed id, by
// the claim winner, before that caller probes for the hash.
func (x *DynamicIndex) Register(id int32, h phash.Hash) {
	for b := range x.shards {
		v := bandValue(h, x.specs[b])
		sh := &x.shards[b]
		sh.mu.Lock()
		sh.buckets[v] = append(sh.buckets[v], id)
		sh.mu.Unlock()
	}
}

// ProbeStats reports what one probe cost.
type ProbeStats struct {
	Probes        int64 // bucket lookups across shards
	Candidates    int64 // distinct candidates examined
	DistanceCalls int64 // full Hamming verifications
}

// probeScratch is pooled per-probe state: a stamp array deduplicating
// candidates across bands without per-probe allocation (mark[id] ==
// stamp once id was seen by the current probe), plus the candidate list.
type probeScratch struct {
	mark  []uint32
	stamp uint32
	ids   []int32
}

var probePool = sync.Pool{New: func() any { return &probeScratch{} }}

// collect appends every id of bucket not yet seen by this probe (and
// not self) to sc.ids.
func (sc *probeScratch) collect(x *DynamicIndex, bucket []int32, self int32) {
	for _, cd := range bucket {
		if int(cd) >= len(sc.mark) {
			// Ids are claimed before they are published, so Len
			// already covers any id a bucket holds.
			sc.mark = append(sc.mark, make([]uint32, x.Len()-len(sc.mark))...)
		}
		if cd == self || sc.mark[cd] == sc.stamp {
			continue
		}
		sc.mark[cd] = sc.stamp
		sc.ids = append(sc.ids, cd)
	}
}

// ProbeNeighbours returns the ids of every registered distinct hash
// within maxBits of h, ascending, excluding self (pass self = -1 when h
// is not registered, or to have h's own id verified and returned too).
// It walks the bands serially, each shard's buckets under that shard's
// read lock, keeping the first sighting of every candidate, then
// verifies each distinct candidate with one full Hamming distance call
// outside all locks.
func (x *DynamicIndex) ProbeNeighbours(h phash.Hash, self int32) ([]int32, ProbeStats) {
	sc := probePool.Get().(*probeScratch)
	sc.stamp++
	if sc.stamp == 0 { // wrapped: stale marks could alias the new stamp
		clear(sc.mark)
		sc.stamp = 1
	}
	sc.ids = sc.ids[:0]

	var st ProbeStats
	for b := range x.shards {
		spec, sh := x.specs[b], &x.shards[b]
		var lookups int64
		sh.mu.RLock()
		enumBand(bandValue(h, spec), spec.Width, x.tol, func(pv uint64) {
			lookups++
			sc.collect(x, sh.buckets[pv], self)
		})
		sh.mu.RUnlock()
		sh.probes.Add(lookups)
		st.Probes += lookups
	}

	// Verify each distinct candidate once, filtering sc.ids in place.
	// No locks held: candidate cells are immutable once their ids were
	// published.
	st.Candidates = int64(len(sc.ids))
	st.DistanceCalls = st.Candidates
	w := 0
	for _, cd := range sc.ids {
		if phash.Distance(h, x.hashes.at(cd)) <= x.maxBits {
			sc.ids[w] = cd
			w++
		}
	}
	var nbrs []int32
	if w > 0 {
		nbrs = slices.Clone(sc.ids[:w])
		slices.Sort(nbrs)
	}
	probePool.Put(sc)

	x.candidates.Add(st.Candidates)
	x.distCalls.Add(st.DistanceCalls)
	return nbrs, st
}

// Add inserts h and returns its id plus the ids of every previously
// registered distinct hash within maxBits (ascending, excluding h
// itself). If h is already claimed the existing id is returned with a
// nil neighbour slice and isNew=false — re-observations of a known hash
// cost a lock-free map lookup and zero distance calls. Concurrent Adds
// are safe; for hashes racing their registrations, at least one of the
// two overlapping Adds reports the other in its neighbour slice.
func (x *DynamicIndex) Add(h phash.Hash) (id int32, neighbours []int32, isNew bool) {
	id, isNew = x.Claim(h)
	if !isNew {
		return id, nil, false
	}
	x.Register(id, h)
	neighbours, _ = x.ProbeNeighbours(h, id)
	return id, neighbours, true
}

// DynamicIndexStats snapshots the index shape and query counters.
type DynamicIndexStats struct {
	Distinct      int
	Bands         int
	Tolerance     int
	Probes        int64   // bucket lookups performed (all shards)
	Candidates    int64   // distinct candidates examined (pre-verification)
	DistanceCalls int64   // full Hamming verifications
	ShardProbes   []int64 // bucket lookups per band shard
}

// Stats returns the current counters.
func (x *DynamicIndex) Stats() DynamicIndexStats {
	st := DynamicIndexStats{
		Distinct:      x.Len(),
		Bands:         len(x.shards),
		Tolerance:     x.tol,
		Candidates:    x.candidates.Load(),
		DistanceCalls: x.distCalls.Load(),
		ShardProbes:   make([]int64, len(x.shards)),
	}
	for b := range x.shards {
		p := x.shards[b].probes.Load()
		st.ShardProbes[b] = p
		st.Probes += p
	}
	return st
}

// DistanceCalls reports the full Hamming verifications performed so far.
func (x *DynamicIndex) DistanceCalls() int64 { return x.distCalls.Load() }
