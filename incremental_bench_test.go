package seacma

// Perf-contract benches for the incremental campaign store: absorbing
// a tranche of fresh observations into an existing store must pay an
// order of magnitude fewer Hamming verifications than re-clustering
// the whole log from scratch — that asymmetry is the store's reason to
// exist, so `make bench-check` guards it (append distance calls must
// stay under 20% of a full rebuild's).

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campstore"
	"repro/internal/phash"
)

// incrementalCorpus builds a deterministic steady-state observation
// stream: nc ε-dense cluster neighbourhoods of `per` members (≤2 bit
// flips around a random centre) plus `noise` isolated hashes.
func incrementalCorpus(nc, per, noise int) []campstore.Event {
	r := rand.New(rand.NewSource(42))
	tick := time.Unix(1600000000, 0).UTC()
	var evs []campstore.Event
	dom := 0
	add := func(h phash.Hash, src string) {
		evs = append(evs, campstore.Event{
			Hash: h, E2LD: fmt.Sprintf("d%04d.example", dom),
			Tick: tick, Source: src,
		})
		dom++
	}
	for c := 0; c < nc; c++ {
		centre := phash.Hash{Hi: r.Uint64(), Lo: r.Uint64()}
		add(centre, campstore.SourceCrawl)
		for m := 1; m < per; m++ {
			add(centre.FlipBits(r.Intn(128), r.Intn(128)), campstore.SourceCrawl)
		}
	}
	for i := 0; i < noise; i++ {
		add(phash.Hash{Hi: r.Uint64(), Lo: r.Uint64()}, campstore.SourceCrawl)
	}
	return evs
}

// perturbedBatch derives one tranche of fresh sightings from the
// corpus: new hashes ≤3 flips from existing members (still inside
// their cluster's ε-neighbourhood), on the same domains, at new ticks.
func perturbedBatch(corpus []campstore.Event, n, round int) []campstore.Event {
	r := rand.New(rand.NewSource(int64(7 + round)))
	batch := make([]campstore.Event, 0, n)
	for j := 0; j < n; j++ {
		src := corpus[r.Intn(len(corpus))]
		batch = append(batch, campstore.Event{
			Hash:   src.Hash.FlipBits(r.Intn(128), r.Intn(128), r.Intn(128)),
			E2LD:   src.E2LD,
			Tick:   src.Tick.Add(time.Duration(round*n+j+1) * time.Minute),
			Source: campstore.SourceMilk,
		})
	}
	return batch
}

const (
	incrClusters  = 80
	incrPerClust  = 8
	incrNoise     = 240
	incrBatchSize = 25
)

// BenchmarkIncrementalCluster_Append measures the steady state:
// absorbing one 25-event tranche into a store that already holds the
// ~880-point corpus. Every iteration rebuilds that store outside the
// timer and appends the same tranche FullRebuild absorbs, so the row
// measures a fixed-size store at any b.N. distance-calls counts the
// full Hamming verifications per tranche — only the new hashes in the
// tranche pay any; deriving the updated labels afterwards pays zero.
func BenchmarkIncrementalCluster_Append(b *testing.B) {
	corpus := incrementalCorpus(incrClusters, incrPerClust, incrNoise)
	batch := perturbedBatch(corpus, incrBatchSize, 0)
	var calls int64
	var clusters int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := campstore.New(campstore.Config{})
		if _, err := st.AppendBatch(corpus); err != nil {
			b.Fatal(err)
		}
		start := st.DistanceCalls()
		b.StartTimer()
		if _, err := st.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
		st.LiveLabels()
		calls += st.DistanceCalls() - start
		clusters = st.Stats().LiveClusters
	}
	b.StopTimer()
	b.ReportMetric(float64(calls)/float64(b.N), "distance-calls")
	b.ReportMetric(float64(clusters), "clusters")
}

// BenchmarkIncrementalCluster_FullRebuild is the alternative the store
// replaces: to absorb the same 25-event tranche, re-cluster the whole
// log (corpus + tranche) from scratch. Its distance-calls is the
// per-tranche cost the append path is measured against.
func BenchmarkIncrementalCluster_FullRebuild(b *testing.B) {
	corpus := incrementalCorpus(incrClusters, incrPerClust, incrNoise)
	batch := perturbedBatch(corpus, incrBatchSize, 0)
	b.ResetTimer()
	var calls int64
	for i := 0; i < b.N; i++ {
		st := campstore.New(campstore.Config{})
		if _, err := st.AppendBatch(corpus); err != nil {
			b.Fatal(err)
		}
		if _, err := st.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
		st.LiveLabels()
		calls += st.DistanceCalls()
	}
	b.StopTimer()
	b.ReportMetric(float64(calls)/float64(b.N), "distance-calls")
}

// BenchmarkIncrementalCluster_Merge isolates the most intrusive
// incremental transition: a bridge observation lands exactly ε from
// two so-far-separate clusters and their components union. The labels
// of every member change, yet the append pays only the bridge hash's
// own index probe.
func BenchmarkIncrementalCluster_Merge(b *testing.B) {
	a := phash.Hash{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	farBits := make([]int, 24)
	for i := range farBits {
		farBits[i] = 64 + i
	}
	c := a.FlipBits(farBits...)
	tick := time.Unix(1600000000, 0).UTC()
	stream := []campstore.Event{
		{Hash: a, E2LD: "left.example", Tick: tick, Source: campstore.SourceCrawl},
		{Hash: c, E2LD: "right.example", Tick: tick, Source: campstore.SourceCrawl},
	}
	for i := 0; i < 6; i++ {
		stream = append(stream,
			campstore.Event{Hash: a.FlipBits(i), E2LD: fmt.Sprintf("left%d.example", i), Tick: tick, Source: campstore.SourceCrawl},
			campstore.Event{Hash: c.FlipBits(i), E2LD: fmt.Sprintf("right%d.example", i), Tick: tick, Source: campstore.SourceCrawl})
	}
	bridge := campstore.Event{Hash: a.FlipBits(farBits[:12]...), E2LD: "bridge.example", Tick: tick, Source: campstore.SourceMilk}
	var calls, merges int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := campstore.New(campstore.Config{})
		if _, err := st.AppendBatch(stream); err != nil {
			b.Fatal(err)
		}
		before, pre := st.Stats(), st.DistanceCalls()
		if before.LiveClusters != 2 {
			b.Fatalf("pre-merge clusters = %d, want 2", before.LiveClusters)
		}
		b.StartTimer()
		if _, err := st.Append(bridge); err != nil {
			b.Fatal(err)
		}
		st.LiveLabels()
		b.StopTimer()
		after := st.Stats()
		if after.LiveClusters != 1 || after.Merges-before.Merges == 0 {
			b.Fatalf("post-merge clusters = %d, merges += %d", after.LiveClusters, after.Merges-before.Merges)
		}
		calls += st.DistanceCalls() - pre
		merges += after.Merges - before.Merges
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(calls)/float64(b.N), "distance-calls")
	b.ReportMetric(float64(merges)/float64(b.N), "merges")
}

// benchmarkStoreAppend ingests the full steady-state corpus into a
// fresh store with `workers` concurrent appenders, each submitting
// every workers'th 25-event tranche via AppendBatch. One op = one full
// corpus ingest. Appenders queue on the store's writer lock, so the W
// variants measure what queueing costs: `make bench-check` requires W8
// to take at most 1.25x the W1 time, on any host.
func benchmarkStoreAppend(b *testing.B, workers int) {
	corpus := incrementalCorpus(incrClusters, incrPerClust, incrNoise)
	var tranches [][]campstore.Event
	for off := 0; off < len(corpus); off += incrBatchSize {
		end := off + incrBatchSize
		if end > len(corpus) {
			end = len(corpus)
		}
		tranches = append(tranches, corpus[off:end])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := campstore.New(campstore.Config{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for t := w; t < len(tranches); t += workers {
					if _, err := st.AppendBatch(tranches[t]); err != nil {
						b.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		st.LiveLabels()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(corpus)*b.N)/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkStoreAppend_W1(b *testing.B) { benchmarkStoreAppend(b, 1) }
func BenchmarkStoreAppend_W4(b *testing.B) { benchmarkStoreAppend(b, 4) }
func BenchmarkStoreAppend_W8(b *testing.B) { benchmarkStoreAppend(b, 8) }

// BenchmarkStoreMixed_ReadHeavy runs one writer ingesting the corpus
// while three readers continuously walk the read surface: labels,
// which are derived under the writer lock, plus pagination, stats and
// campaign projections off the lock-free snapshot. ns/op is the W1
// append bench plus what the readers' label derivations make the
// writer wait for, and reads/op records how much read traffic rode
// along.
// The writer starts behind a barrier that every reader passes after
// its first full read, so each reader overlaps the appends; a run that
// records no reads measured nothing and fails.
func BenchmarkStoreMixed_ReadHeavy(b *testing.B) {
	const readers = 3
	corpus := incrementalCorpus(incrClusters, incrPerClust, incrNoise)
	b.ReportAllocs()
	var reads atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := campstore.New(campstore.Config{})
		stop := make(chan struct{})
		var readWG, started sync.WaitGroup
		started.Add(readers)
		for r := 0; r < readers; r++ {
			readWG.Add(1)
			go func() {
				defer readWG.Done()
				for first := true; ; first = false {
					st.LiveLabels()
					st.Events(0, 32)
					st.Stats()
					st.LiveCampaigns()
					reads.Add(1)
					if first {
						started.Done()
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		started.Wait()
		for off := 0; off < len(corpus); off += incrBatchSize {
			end := off + incrBatchSize
			if end > len(corpus) {
				end = len(corpus)
			}
			if _, err := st.AppendBatch(corpus[off:end]); err != nil {
				b.Fatal(err)
			}
		}
		close(stop)
		readWG.Wait()
	}
	b.StopTimer()
	if reads.Load() == 0 {
		b.Fatal("no snapshot reads rode along with the appends")
	}
	b.ReportMetric(float64(reads.Load())/float64(b.N), "reads")
}

// publishCampaigns is the number of campaigns registered on the
// BenchmarkStorePublish stores, as many as the benchmark's ingest world
// carries.
const publishCampaigns = 14

// benchmarkStorePublish measures what one write costs as the store
// grows: it appends one fixed 4-event tranche (near-duplicates of four
// campaign members, so four campaign views change) to a store of
// `points` points holding publishCampaigns registered campaigns of 8
// points each. The corpus keeps one cluster-to-noise mix at every size
// and its first clusters are the same at every size, so only the
// store's size differs between the rows. Each iteration builds its
// store outside the timer. B/op counts the append and its publish; a
// publish that re-derives labels or re-projects campaigns over the
// whole store grows it with the store, an O(changed state) publish
// does not. `make bench-check` requires B/op at 50k to stay within
// 1.5x of B/op at 5k.
func benchmarkStorePublish(b *testing.B, points int) {
	nc := points * 8 / 100 // 64% clustered points, 36% noise
	corpus := incrementalCorpus(nc, incrPerClust, points-nc*incrPerClust)
	tranche := make([]campstore.Event, 4)
	for j := range tranche {
		src := corpus[j*3*incrPerClust+1]
		tranche[j] = campstore.Event{Hash: src.Hash.FlipBits(90 + j), E2LD: src.E2LD,
			Tick: src.Tick.Add(time.Hour), Source: campstore.SourceMilk}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := campstore.New(campstore.Config{})
		if _, err := st.AppendBatch(corpus); err != nil {
			b.Fatal(err)
		}
		for c := 0; c < publishCampaigns; c++ {
			rep := corpus[c*incrPerClust]
			if err := st.RegisterCampaign(campstore.Campaign{ID: c, RepHash: rep.Hash, RepE2LD: rep.E2LD}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := st.AppendBatch(tranche); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(points), "points")
}

func BenchmarkStorePublish_5k(b *testing.B)  { benchmarkStorePublish(b, 5000) }
func BenchmarkStorePublish_50k(b *testing.B) { benchmarkStorePublish(b, 50000) }
