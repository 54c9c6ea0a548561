package cluster

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/phash"
)

// TestMultiIndexLabelsMatchFlatPath checks that batch clustering through
// the pigeonhole index labels exactly like the flat per-distinct scan
// while paying at least 5x fewer distance calls.
func TestMultiIndexLabelsMatchFlatPath(t *testing.T) {
	hashes := corpus(800, 25)
	flat, err := DBSCANHashesFlat(hashes, PaperParams)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := DBSCANHashes(hashes, PaperParams)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flat.Labels, indexed.Labels) {
		t.Fatal("indexed labels differ from flat-scan labels")
	}
	if flat.NumClusters != indexed.NumClusters {
		t.Fatalf("cluster counts differ: flat %d, indexed %d", flat.NumClusters, indexed.NumClusters)
	}
	if indexed.DistanceCalls >= flat.DistanceCalls {
		t.Fatalf("indexed DistanceCalls %d not below flat %d",
			indexed.DistanceCalls, flat.DistanceCalls)
	}
	if flat.DistanceCalls < 5*indexed.DistanceCalls {
		t.Fatalf("want >=5x distance-call reduction, got flat=%d indexed=%d (%.1fx)",
			flat.DistanceCalls, indexed.DistanceCalls,
			float64(flat.DistanceCalls)/float64(indexed.DistanceCalls))
	}
}

// TestClusterHashesWorkerCountInvariance runs 1, 2, 8 and 16
// concurrent ClusterHashes callers over one corpus (under -race they
// share the index package's pooled probe scratch): every caller's
// labels, cluster count and distance calls must match a serial
// reference run.
func TestClusterHashesWorkerCountInvariance(t *testing.T) {
	hashes := corpus(600, 20)
	ref, _, err := ClusterHashes(hashes, PaperParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, callers := range []int{1, 2, 8, 16} {
		results := make([]Result, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[c], _, errs[c] = ClusterHashes(hashes, PaperParams)
			}()
		}
		wg.Wait()
		for c, res := range results {
			if errs[c] != nil {
				t.Fatalf("callers=%d, caller %d: %v", callers, c, errs[c])
			}
			if !reflect.DeepEqual(res.Labels, ref.Labels) {
				t.Fatalf("callers=%d, caller %d: labels differ from the serial run", callers, c)
			}
			if res.NumClusters != ref.NumClusters {
				t.Fatalf("callers=%d, caller %d: %d clusters, want %d", callers, c, res.NumClusters, ref.NumClusters)
			}
			if res.DistanceCalls != ref.DistanceCalls {
				t.Fatalf("callers=%d, caller %d: %d distance calls, want %d",
					callers, c, res.DistanceCalls, ref.DistanceCalls)
			}
		}
	}
}

// TestMultiIndexLinearFallback clusters at eps=0.45, where every band
// probe enumerates more flipped values than there are distinct hashes
// (the regime the deleted linear-scan fallback used to take over). The
// batch path must still label like the flat scan, and every point's
// probed neighbourhood must match a brute-force scan.
func TestMultiIndexLinearFallback(t *testing.T) {
	hashes := corpus(60, 6)
	params := Params{Eps: 0.45, MinPts: PaperParams.MinPts}
	flat, err := DBSCANHashesFlat(hashes, params)
	if err != nil {
		t.Fatal(err)
	}
	res, idx, err := ClusterHashes(hashes, params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flat.Labels, res.Labels) {
		t.Fatal("eps=0.45: indexed labels differ from flat-scan labels")
	}
	// ClusterHashes probes each distinct hash once.
	if st := idx.Stats(); st.Probes/int64(st.Distinct) <= int64(st.Distinct) {
		t.Fatalf("eps=0.45 over %d distinct: %d bucket lookups per probe, want more than the distinct count",
			st.Distinct, st.Probes/int64(st.Distinct))
	}
	members := map[int32][]int{}
	for i, h := range hashes {
		id, _ := idx.Lookup(h)
		members[id] = append(members[id], i)
	}
	for i, h := range hashes {
		ids, _ := idx.ProbeNeighbours(h, -1)
		var got []int
		for _, id := range ids {
			got = append(got, members[id]...)
		}
		want := bruteNeighbours(hashes, i, idx.MaxBits())
		if got := sortedCopy(got); !reflect.DeepEqual(got, want) {
			t.Fatalf("point %d: neighbours %v, want %v", i, got, want)
		}
	}
}

// TestMultiIndexParallelPrecomputeRace has 16 goroutines probe every
// distinct hash of a registered index at once (under -race they share
// the pooled stamp scratch and the shard read locks). Each probe must
// return the same sorted neighbour set as a serial probe, its own id
// included.
func TestMultiIndexParallelPrecomputeRace(t *testing.T) {
	hashes := corpus(500, 15)
	x := NewDynamicIndex(0.1)
	for _, h := range hashes {
		if id, isNew := x.Claim(h); isNew {
			x.Register(id, h)
		}
	}
	n := x.Len()
	serial := make([][]int32, n)
	for d := range serial {
		serial[d], _ = x.ProbeNeighbours(x.Hash(int32(d)), -1)
	}
	parallel := make([][]int32, n)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := w; d < n; d += 16 {
				parallel[d], _ = x.ProbeNeighbours(x.Hash(int32(d)), -1)
			}
		}(w)
	}
	wg.Wait()
	for d := range parallel {
		if !slices.Contains(parallel[d], int32(d)) {
			t.Fatalf("distinct %d: neighbourhood %v misses itself", d, parallel[d])
		}
		if !reflect.DeepEqual(parallel[d], serial[d]) {
			t.Fatalf("distinct %d: parallel probe %v, serial %v", d, parallel[d], serial[d])
		}
	}
}

// TestMultiIndexMemoizationSharesDuplicates: 100 points over 4 distinct
// hashes cost one probe per distinct hash, so distance calls are
// bounded by distinct^2.
func TestMultiIndexMemoizationSharesDuplicates(t *testing.T) {
	base := corpus(4, 4)
	hashes := make([]phash.Hash, 100)
	for i := range hashes {
		hashes[i] = base[i%len(base)]
	}
	res, idx, err := ClusterHashes(hashes, PaperParams)
	if err != nil {
		t.Fatal(err)
	}
	if d := idx.DistanceCalls(); d > 16 || res.DistanceCalls != d {
		t.Fatalf("distance calls %d (result %d) exceed distinct^2 = 16; duplicates not shared",
			d, res.DistanceCalls)
	}
}

// TestMultiIndexStats checks the shape and counters ClusterHashes
// leaves on its index at the paper's eps.
func TestMultiIndexStats(t *testing.T) {
	hashes := corpus(300, 10)
	_, idx, err := ClusterHashes(hashes, PaperParams)
	if err != nil {
		t.Fatal(err)
	}
	st := idx.Stats()
	distinct := map[phash.Hash]bool{}
	for _, h := range hashes {
		distinct[h] = true
	}
	if st.Distinct != len(distinct) || st.Distinct != idx.Len() {
		t.Fatalf("Distinct = %d, Len = %d, want %d", st.Distinct, idx.Len(), len(distinct))
	}
	if st.Bands != 13 || st.Tolerance != 0 {
		t.Fatalf("paper eps should yield 13 bands tol 0, got %d/%d", st.Bands, st.Tolerance)
	}
	if st.Probes == 0 || st.Candidates == 0 || st.DistanceCalls == 0 {
		t.Fatalf("counters not populated: %+v", st)
	}
	if st.Candidates != st.DistanceCalls {
		t.Fatalf("each deduplicated candidate is verified once: candidates %d vs distance calls %d",
			st.Candidates, st.DistanceCalls)
	}
}
