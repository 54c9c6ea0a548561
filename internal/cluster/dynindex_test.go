package cluster

import (
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/phash"
	"repro/internal/rng"
)

func dynTestHashes(n int, seed int64) []phash.Hash {
	rng := rand.New(rand.NewSource(seed))
	base := make([]phash.Hash, n/4+1)
	for i := range base {
		base[i] = phash.Hash{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	// Mix of fresh hashes and near-duplicates of earlier ones so the
	// index sees both isolated points and dense ε-neighbourhoods.
	out := make([]phash.Hash, 0, n)
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			out = append(out, base[i/4])
			continue
		}
		h := base[i/4]
		flips := rng.Intn(14) // 0..13 bits; eps=0.1 => maxBits=12
		for f := 0; f < flips; f++ {
			bit := uint(rng.Intn(phash.Bits))
			if bit < 64 {
				h.Lo ^= 1 << bit
			} else {
				h.Hi ^= 1 << (bit - 64)
			}
		}
		out = append(out, h)
	}
	return out
}

// bruteNeighbours is the reference neighbourhood: every point within
// maxBits of point i, in ascending index order.
func bruteNeighbours(hashes []phash.Hash, i, maxBits int) []int {
	var out []int
	for j, h := range hashes {
		if phash.Distance(hashes[i], h) <= maxBits {
			out = append(out, j)
		}
	}
	return out
}

// sortedCopy returns a sorted copy of a neighbourhood, for
// order-insensitive comparisons.
func sortedCopy(nb []int) []int {
	out := append([]int(nil), nb...)
	sort.Ints(out)
	return out
}

func TestMultiIndexBandsCoverAllBits(t *testing.T) {
	for m := 2; m <= MaxBands; m++ {
		specs := bandLayout(m)
		if len(specs) != m {
			t.Fatalf("m=%d: got %d bands", m, len(specs))
		}
		covered := uint(0)
		for i, b := range specs {
			if b.Off != covered {
				t.Fatalf("m=%d: band %d starts at %d, want %d", m, i, b.Off, covered)
			}
			if b.Width == 0 || b.Width > 64 {
				t.Fatalf("m=%d: band %d width %d out of range", m, i, b.Width)
			}
			covered += b.Width
		}
		if covered != phash.Bits {
			t.Fatalf("m=%d: bands cover %d bits, want %d", m, covered, phash.Bits)
		}
	}
}

func TestBandValueMatchesBitExtraction(t *testing.T) {
	src := rng.New(3)
	for trial := 0; trial < 200; trial++ {
		h := phash.Hash{Hi: uint64(src.Int63()) | uint64(src.Intn(2))<<63, Lo: uint64(src.Int63()) | uint64(src.Intn(2))<<63}
		off := uint(src.Intn(120))
		width := uint(1 + src.Intn(min(64, 128-int(off))))
		var want uint64
		for b := uint(0); b < width; b++ {
			bit := off + b
			var v uint64
			if bit < 64 {
				v = (h.Hi >> bit) & 1
			} else {
				v = (h.Lo >> (bit - 64)) & 1
			}
			want |= v << b
		}
		got := bandValue(h, bandSpec{Off: off, Width: width})
		if got != want {
			t.Fatalf("bandValue(%v, off=%d, w=%d) = %x, want %x", h, off, width, got, want)
		}
	}
}

func TestEnumBandEmitsExactlyWithinTol(t *testing.T) {
	const width, tol = 6, 2
	v := uint64(0b101100)
	seen := map[uint64]int{}
	enumBand(v, width, tol, func(pv uint64) { seen[pv]++ })
	// Every value within tol flips appears exactly once; none beyond.
	for cand := uint64(0); cand < 1<<width; cand++ {
		d := bits.OnesCount64(cand ^ v)
		n := seen[cand]
		if d <= tol && n != 1 {
			t.Fatalf("value %06b at distance %d emitted %d times", cand, d, n)
		}
		if d > tol && n != 0 {
			t.Fatalf("value %06b at distance %d emitted %d times, want 0", cand, d, n)
		}
	}
}

// TestMultiIndexNeighboursMatchBruteForce inserts a corpus, then
// checks every point's ProbeNeighbours result (expanded to point
// indices) against a brute-force scan, across an eps sweep that runs
// from exact-match buckets (tol 0) to 0.45, where every band probe
// enumerates hundreds of flipped values.
func TestMultiIndexNeighboursMatchBruteForce(t *testing.T) {
	hashes := corpus(400, 12)
	for _, eps := range []float64{0.0, 0.1, 0.2, 0.35, 0.45} {
		x := NewDynamicIndex(eps)
		var members [][]int
		for i, h := range hashes {
			id, isNew := x.Insert(h)
			if isNew {
				members = append(members, nil)
			}
			members[id] = append(members[id], i)
		}
		for i, h := range hashes {
			ids, st := x.ProbeNeighbours(h, -1)
			if st.Candidates != st.DistanceCalls {
				t.Fatalf("eps=%v point %d: %d candidates, %d distance calls", eps, i, st.Candidates, st.DistanceCalls)
			}
			var got []int
			for _, id := range ids {
				got = append(got, members[id]...)
			}
			want := bruteNeighbours(hashes, i, x.MaxBits())
			if got := sortedCopy(got); !reflect.DeepEqual(got, want) {
				t.Fatalf("eps=%v point %d: neighbours %v, want %v", eps, i, got, want)
			}
			self, _ := x.Lookup(h)
			without, _ := x.ProbeNeighbours(h, self)
			if len(without) != len(ids)-1 || slices.Contains(without, self) {
				t.Fatalf("eps=%v point %d: probe excluding self %v, with self %v", eps, i, without, ids)
			}
		}
	}
}

// TestDynamicIndexMatchesBruteForce checks that incrementally adding a
// stream yields, for every distinct hash, exactly the neighbour set a
// brute-force scan over all distinct hashes reports, and that the final
// distinct-hash numbering matches first-appearance order.
func TestDynamicIndexMatchesBruteForce(t *testing.T) {
	const eps = 0.1
	hashes := dynTestHashes(300, 7)

	dyn := NewDynamicIndex(eps)
	nbrs := map[int32][]int32{}
	for _, h := range hashes {
		id, nb, isNew := dyn.Add(h)
		if isNew {
			nbrs[id] = nb
			// Symmetric closure: later arrivals extend earlier sets.
			for _, n := range nb {
				nbrs[n] = append(nbrs[n], id)
			}
		}
	}

	seen := map[phash.Hash]int32{}
	order := []phash.Hash{}
	for _, h := range hashes {
		if _, ok := seen[h]; !ok {
			seen[h] = int32(len(order))
			order = append(order, h)
		}
	}
	if len(order) != dyn.Len() {
		t.Fatalf("distinct count: brute %d dyn %d", len(order), dyn.Len())
	}
	for d, h := range order {
		id, ok := dyn.Lookup(h)
		if !ok || id != int32(d) {
			t.Fatalf("hash %d: lookup id %d ok=%v, want %d", d, id, ok, d)
		}
		if dyn.Hash(id) != h {
			t.Fatalf("hash %d: Hash() roundtrip mismatch", d)
		}
		want := map[int32]bool{}
		for e, g := range order {
			if e != d && phash.Distance(h, g) <= dyn.MaxBits() {
				want[int32(e)] = true
			}
		}
		got := nbrs[id]
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("hash %d: %d neighbours, want %d", d, len(got), len(want))
		}
		for _, n := range got {
			if !want[n] {
				t.Fatalf("hash %d: spurious neighbour %d", d, n)
			}
		}
	}
}

// TestDynamicIndexKnownHashFree: re-adding a known hash must cost zero
// distance calls and zero probes.
func TestDynamicIndexKnownHashFree(t *testing.T) {
	dyn := NewDynamicIndex(0.1)
	h := phash.Hash{Hi: 0xdead, Lo: 0xbeef}
	id0, _, isNew := dyn.Add(h)
	if !isNew {
		t.Fatal("first add not new")
	}
	st0 := dyn.Stats()
	id1, nb, isNew := dyn.Add(h)
	if isNew || id1 != id0 || nb != nil {
		t.Fatalf("re-add: id %d new %v nbrs %v", id1, isNew, nb)
	}
	st1 := dyn.Stats()
	if st1.DistanceCalls != st0.DistanceCalls || st1.Probes != st0.Probes {
		t.Fatalf("re-add cost: probes %d->%d distCalls %d->%d",
			st0.Probes, st1.Probes, st0.DistanceCalls, st1.DistanceCalls)
	}
}

// TestDynamicIndexStats sanity-checks the counter plumbing: shard
// probes sum to the global probe count, and candidates == distance
// calls (every distinct candidate is verified exactly once).
func TestDynamicIndexStats(t *testing.T) {
	dyn := NewDynamicIndex(0.1)
	for _, h := range dynTestHashes(100, 11) {
		dyn.Add(h)
	}
	st := dyn.Stats()
	if st.Bands != bandsFor(dyn.MaxBits()) {
		t.Fatalf("bands %d, want %d", st.Bands, bandsFor(dyn.MaxBits()))
	}
	if len(st.ShardProbes) != st.Bands {
		t.Fatalf("shard probe vector len %d, want %d", len(st.ShardProbes), st.Bands)
	}
	var sum int64
	for _, p := range st.ShardProbes {
		sum += p
	}
	if sum != st.Probes {
		t.Fatalf("shard probes sum %d != total %d", sum, st.Probes)
	}
	if st.Candidates != st.DistanceCalls {
		t.Fatalf("candidates %d != distance calls %d", st.Candidates, st.DistanceCalls)
	}
	if st.Probes == 0 || st.DistanceCalls == 0 {
		t.Fatal("expected non-zero probe/verification counters")
	}
	if dc := dyn.DistanceCalls(); dc != st.DistanceCalls {
		t.Fatalf("DistanceCalls() %d != Stats %d", dc, st.DistanceCalls)
	}
}

// TestDynamicIndexConcurrentAdds hammers Add from many goroutines and
// then verifies the edge-discovery guarantee: for every ε-pair of
// distinct hashes, at least one of the two Adds reported the other (the
// union of reported edges, symmetrized, equals the true ε-graph).
func TestDynamicIndexConcurrentAdds(t *testing.T) {
	const (
		eps     = 0.1
		workers = 8
	)
	hashes := dynTestHashes(400, 23)

	dyn := NewDynamicIndex(eps)
	var mu sync.Mutex
	edges := map[[2]int32]bool{}
	ids := map[phash.Hash]int32{}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Shifted replay: every worker adds the full stream from a
			// different start, so identical hashes race their inserts
			// and near hashes race their probes.
			for i := range hashes {
				h := hashes[(i+w*53)%len(hashes)]
				id, nb, isNew := dyn.Add(h)
				if !isNew {
					continue
				}
				mu.Lock()
				ids[h] = id
				for _, n := range nb {
					a, b := id, n
					if a > b {
						a, b = b, a
					}
					edges[[2]int32{a, b}] = true
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	distinct := map[phash.Hash]bool{}
	for _, h := range hashes {
		distinct[h] = true
	}
	if len(ids) != len(distinct) || dyn.Len() != len(distinct) {
		t.Fatalf("distinct: claimed %d indexed %d, want %d", len(ids), dyn.Len(), len(distinct))
	}
	uniq := make([]phash.Hash, 0, len(distinct))
	for h := range distinct {
		uniq = append(uniq, h)
	}
	for i := 0; i < len(uniq); i++ {
		for j := i + 1; j < len(uniq); j++ {
			within := phash.Distance(uniq[i], uniq[j]) <= dyn.MaxBits()
			a, b := ids[uniq[i]], ids[uniq[j]]
			if a > b {
				a, b = b, a
			}
			if got := edges[[2]int32{a, b}]; got != within {
				t.Fatalf("edge (%d,%d): reported %v, within ε %v", a, b, got, within)
			}
		}
	}
}

// TestDynamicIndexConcurrentProbeDuringRegister interleaves probes of a
// fixed hash with registrations of its neighbours: every probe must
// return a consistent (sorted, dedup'd) subset of the final neighbour
// set — no duplicates, no phantom ids.
func TestDynamicIndexConcurrentProbeDuringRegister(t *testing.T) {
	dyn := NewDynamicIndex(0.1)
	center := phash.Hash{Hi: 1 << 40, Lo: 1 << 20}
	cid, _, _ := dyn.Add(center)

	// 64 hashes within ε of center (flip ≤ 3 low bits).
	near := make([]phash.Hash, 64)
	for i := range near {
		h := center
		h.Lo ^= uint64(i & 7)
		h.Hi ^= uint64(i >> 3)
		near[i] = h
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, h := range near {
			dyn.Add(h)
		}
	}()
	for {
		nb, _ := dyn.ProbeNeighbours(center, cid)
		for i := 1; i < len(nb); i++ {
			if nb[i] <= nb[i-1] {
				t.Errorf("probe result not strictly ascending: %v", nb)
				break
			}
		}
		for _, n := range nb {
			if n == cid {
				t.Errorf("probe returned self")
			}
			if phash.Distance(center, dyn.Hash(n)) > dyn.MaxBits() {
				t.Errorf("probe returned non-neighbour %d", n)
			}
		}
		select {
		case <-done:
			nb, _ := dyn.ProbeNeighbours(center, cid)
			want := 0
			for _, h := range near {
				if h != center && phash.Distance(center, h) <= dyn.MaxBits() {
					want++
				}
			}
			if len(nb) != want {
				t.Fatalf("final probe: %d neighbours, want %d", len(nb), want)
			}
			return
		default:
		}
	}
}
