package campstore_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/campstore"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/phash"
)

// seqFlips returns the positions lo..hi inclusive.
func seqFlips(lo, hi int) []int {
	var out []int
	for p := lo; p <= hi; p++ {
		out = append(out, p)
	}
	return out
}

func randHash(rng *rand.Rand) phash.Hash {
	return phash.Hash{Hi: rng.Uint64(), Lo: rng.Uint64()}
}

// batchLabels is the ground truth: a from-scratch batch clustering of
// the given hash sequence.
func batchLabels(t *testing.T, hashes []phash.Hash, params cluster.Params) ([]int, int) {
	t.Helper()
	if len(hashes) == 0 {
		return nil, 0
	}
	res, _, err := cluster.ClusterHashes(hashes, params)
	if err != nil {
		t.Fatalf("batch clustering: %v", err)
	}
	return res.Labels, res.NumClusters
}

// replayChecked appends the stream event by event, asserting after
// every single append that both views' incremental labels are
// *identical* to a batch DBSCAN over the same point sequences.
func replayChecked(t *testing.T, params cluster.Params, stream []campstore.Event) *campstore.Store {
	t.Helper()
	s := campstore.New(campstore.Config{Params: params})
	type pk struct {
		h    phash.Hash
		e2ld string
	}
	seenLive := map[pk]bool{}
	seenDisc := map[pk]bool{}
	var liveHashes, discHashes []phash.Hash
	for i, ev := range stream {
		if _, err := s.Append(ev); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		k := pk{ev.Hash, ev.E2LD}
		if !seenLive[k] {
			seenLive[k] = true
			liveHashes = append(liveHashes, ev.Hash)
		}
		if ev.Source == campstore.SourceCrawl && !seenDisc[k] {
			seenDisc[k] = true
			discHashes = append(discHashes, ev.Hash)
		}
		gotL, gotNL := s.LiveLabels()
		wantL, wantNL := batchLabels(t, liveHashes, params)
		assertLabelsEqual(t, "live", i, gotL, gotNL, wantL, wantNL)
		gotD, gotND := s.DiscoveryLabels()
		wantD, wantND := batchLabels(t, discHashes, params)
		assertLabelsEqual(t, "discovery", i, gotD, gotND, wantD, wantND)
	}
	return s
}

func assertLabelsEqual(t *testing.T, view string, prefix int, got []int, gotN int, want []int, wantN int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("prefix %d %s view: %d incremental points vs %d batch", prefix, view, len(got), len(want))
	}
	if gotN != wantN {
		t.Fatalf("prefix %d %s view: %d incremental clusters vs %d batch", prefix, view, gotN, wantN)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("prefix %d %s view: point %d labelled %d incrementally, %d by batch",
				prefix, view, i, got[i], want[i])
		}
	}
}

// mergeStream builds a stream that grows two separate clusters and then
// bridges them: base B sits 20 bits from base A (beyond eps=12), the
// bridge is 10 bits from both, and its arrival both promotes it to a
// core point and merges the two components.
func mergeStream(rng *rand.Rand) []campstore.Event {
	a := randHash(rng)
	b := a.FlipBits(seqFlips(0, 19)...)
	bridge := a.FlipBits(seqFlips(0, 9)...)
	var evs []campstore.Event
	add := func(h phash.Hash, dom string, src string) {
		evs = append(evs, campstore.Event{Hash: h, E2LD: dom, Source: src,
			Tick: time.Unix(int64(len(evs)), 0)})
	}
	for i := 0; i < 5; i++ {
		add(a.FlipBits(120+i), fmt.Sprintf("left%d.example", i), campstore.SourceCrawl)
	}
	for i := 0; i < 5; i++ {
		add(b.FlipBits(110+i), fmt.Sprintf("right%d.example", i), campstore.SourceCrawl)
	}
	// A couple of milk re-sightings (live view only) plus the bridge.
	add(a.FlipBits(120), "left0.example", campstore.SourceMilk)
	add(bridge, "bridge.example", campstore.SourceMilk)
	add(bridge, "bridge.example", campstore.SourceCrawl)
	return evs
}

// borderStream needs MinPts=4: X is within eps of one core point in
// each of two clusters but has a 3-point neighbourhood, so it stays a
// border point and batch DBSCAN gives it the *minimum* of the two
// cluster ids.
func borderStream(rng *rand.Rand) []campstore.Event {
	a := randHash(rng)
	b := a.FlipBits(seqFlips(0, 19)...) // d(a,b)=20
	x := a.FlipBits(seqFlips(0, 9)...)  // d(x,a)=10, d(x,b)=10
	var evs []campstore.Event
	add := func(h phash.Hash, dom string, src string) {
		evs = append(evs, campstore.Event{Hash: h, E2LD: dom, Source: src,
			Tick: time.Unix(int64(len(evs)), 0)})
	}
	// Satellites sit 12 bits from their base in regions far from x, so
	// they count toward the base's coreness without neighbouring x.
	add(a, "a.example", campstore.SourceCrawl)
	add(a.FlipBits(seqFlips(100, 111)...), "a1.example", campstore.SourceCrawl)
	add(a.FlipBits(seqFlips(88, 99)...), "a2.example", campstore.SourceCrawl)
	add(b, "b.example", campstore.SourceCrawl)
	add(b.FlipBits(seqFlips(100, 111)...), "b1.example", campstore.SourceCrawl)
	add(b.FlipBits(seqFlips(88, 99)...), "b2.example", campstore.SourceCrawl)
	add(x, "x.example", campstore.SourceCrawl) // N(x)={x,a,b}: border of both
	return evs
}

// clusterStream grows k clusters of dense same-neighbourhood points
// with random cross-source duplicates — the steady-state shape of the
// milking workload.
func clusterStream(rng *rand.Rand, k, perCluster int) []campstore.Event {
	var evs []campstore.Event
	for c := 0; c < k; c++ {
		base := randHash(rng)
		for i := 0; i < perCluster; i++ {
			h := base.FlipBits(rng.Intn(phash.Bits), rng.Intn(phash.Bits))
			src := campstore.SourceCrawl
			if rng.Intn(3) == 0 {
				src = campstore.SourceMilk
			}
			evs = append(evs, campstore.Event{
				Hash:   h,
				E2LD:   fmt.Sprintf("c%dd%d.example", c, rng.Intn(6)),
				Source: src,
				Tick:   time.Unix(int64(len(evs)), 0),
			})
		}
	}
	return evs
}

// TestIncrementalMatchesBatchEveryPrefix is the load-bearing property:
// after every prefix of every stream — shuffled orders included — the
// incremental labels equal batch DBSCAN labels exactly, cluster ids
// and all, for both the crawl-only and the all-sources view.
func TestIncrementalMatchesBatchEveryPrefix(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		streams := map[string][]campstore.Event{
			"merge":   mergeStream(rng),
			"cluster": clusterStream(rng, 3, 12),
		}
		for name, stream := range streams {
			for shuffle := 0; shuffle < 3; shuffle++ {
				t.Run(fmt.Sprintf("%s/seed%d/shuffle%d", name, seed, shuffle), func(t *testing.T) {
					evs := append([]campstore.Event(nil), stream...)
					if shuffle > 0 {
						rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
					}
					replayChecked(t, cluster.PaperParams, evs)
				})
			}
		}
	}
}

// TestIncrementalBorderMinID pins the border tie-break at MinPts=4: a
// border point adjacent to two clusters takes the smaller cluster id,
// in any arrival order.
func TestIncrementalBorderMinID(t *testing.T) {
	params := cluster.Params{Eps: 0.1, MinPts: 4}
	rng := rand.New(rand.NewSource(7))
	stream := borderStream(rng)
	for shuffle := 0; shuffle < 6; shuffle++ {
		t.Run(fmt.Sprintf("shuffle%d", shuffle), func(t *testing.T) {
			evs := append([]campstore.Event(nil), stream...)
			if shuffle > 0 {
				rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
			}
			replayChecked(t, params, evs)
		})
	}
}

func TestDedupSeqAndPagination(t *testing.T) {
	s := campstore.New(campstore.Config{})
	ev := campstore.Event{Hash: phash.Hash{Hi: 1}, E2LD: "a.example", Source: campstore.SourceCrawl}
	r1, err := s.Append(ev)
	if err != nil || r1.Seq != 1 || r1.Duplicate || !r1.NewPoint || !r1.NewHash {
		t.Fatalf("first append: %+v err=%v", r1, err)
	}
	r2, err := s.Append(ev)
	if err != nil || !r2.Duplicate || r2.Seq != 1 {
		t.Fatalf("duplicate append: %+v err=%v", r2, err)
	}
	// Same hash, new e2LD: new point, no new hash, zero distance calls.
	r3, _ := s.Append(campstore.Event{Hash: phash.Hash{Hi: 1}, E2LD: "b.example", Source: campstore.SourceMilk})
	if !r3.NewPoint || r3.NewHash || r3.DistanceCalls != 0 || r3.Seq != 2 {
		t.Fatalf("same-hash append: %+v", r3)
	}
	// Same tuple at a different tick is a distinct event.
	r4, _ := s.Append(campstore.Event{Hash: phash.Hash{Hi: 1}, E2LD: "a.example",
		Source: campstore.SourceCrawl, Tick: time.Unix(99, 0)})
	if r4.Duplicate || r4.Seq != 3 || r4.NewPoint {
		t.Fatalf("new-tick append: %+v", r4)
	}
	if _, err := s.Append(campstore.Event{Hash: phash.Hash{Hi: 2}}); err == nil {
		t.Fatal("empty e2LD accepted")
	}
	if n := s.EventCount(); n != 3 {
		t.Fatalf("EventCount = %d, want 3", n)
	}
	page := s.Events(0, 2)
	if len(page) != 2 || page[0].Seq != 1 || page[1].Seq != 2 {
		t.Fatalf("page 1: %+v", page)
	}
	page = s.Events(page[len(page)-1].Seq, 10)
	if len(page) != 1 || page[0].Seq != 3 || page[0].E2LD != "a.example" {
		t.Fatalf("page 2: %+v", page)
	}
	if got := s.Events(3, 10); got != nil {
		t.Fatalf("past-end page: %+v", got)
	}
}

func TestAppendBatchAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	stream := clusterStream(rng, 2, 10)
	stream = append(stream, stream[0]) // one duplicate
	s := campstore.New(campstore.Config{})
	res, err := s.AppendBatch(stream)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if res.Appended != len(stream)-1 || res.Duplicates != 1 {
		t.Fatalf("batch result: %+v", res)
	}
	if res.NewPoints == 0 || res.NewHashes == 0 || res.DistanceCalls < 0 {
		t.Fatalf("batch result: %+v", res)
	}
	if res.Probes == 0 {
		t.Fatalf("expected banded probes, got %+v", res)
	}
}

func TestDiscoveryViewIgnoresMilkEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	crawl := clusterStream(rng, 2, 10)
	for i := range crawl {
		crawl[i].Source = campstore.SourceCrawl
	}
	s := campstore.New(campstore.Config{})
	if _, err := s.AppendBatch(crawl); err != nil {
		t.Fatal(err)
	}
	before, nBefore := s.DiscoveryLabels()
	// A milk flood near (and between) the crawl clusters must not move
	// discovery labels.
	milk := clusterStream(rng, 2, 15)
	for i := range milk {
		milk[i].Source = campstore.SourceMilk
		milk[i].Tick = time.Unix(int64(1000+i), 0)
	}
	if _, err := s.AppendBatch(milk); err != nil {
		t.Fatal(err)
	}
	after, nAfter := s.DiscoveryLabels()
	if nBefore != nAfter || len(before) != len(after) {
		t.Fatalf("discovery view moved: %d/%d clusters, %d/%d points",
			nBefore, nAfter, len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("discovery label %d changed %d -> %d after milk events", i, before[i], after[i])
		}
	}
	if err := s.RunOracle(); err != nil {
		t.Fatalf("oracle after milk flood: %v", err)
	}
}

func TestOracleCadenceAndMetrics(t *testing.T) {
	reg := obs.New()
	s := campstore.New(campstore.Config{OracleEvery: 10, Obs: reg})
	rng := rand.New(rand.NewSource(5))
	stream := clusterStream(rng, 2, 13) // 26 non-duplicate events
	for _, ev := range stream {
		if _, err := s.Append(ev); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if got := s.OracleRuns(); got != 2 {
		t.Fatalf("OracleRuns = %d, want 2 (after events 10 and 20)", got)
	}
	if err := s.RunOracle(); err != nil {
		t.Fatalf("manual oracle: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["cluster_incremental_events_total"] != int64(len(stream)) {
		t.Fatalf("events counter = %d, want %d",
			snap.Counters["cluster_incremental_events_total"], len(stream))
	}
	if snap.Counters["cluster_incremental_oracle_runs_total"] != 3 {
		t.Fatalf("oracle counter = %d, want 3", snap.Counters["cluster_incremental_oracle_runs_total"])
	}
	if snap.Gauges["campstore_observations"] != int64(len(stream)) {
		t.Fatalf("observations gauge = %d, want %d",
			snap.Gauges["campstore_observations"], len(stream))
	}
}

func TestMergeBumpsMergeCounter(t *testing.T) {
	reg := obs.New()
	s := campstore.New(campstore.Config{Obs: reg})
	rng := rand.New(rand.NewSource(9))
	if _, err := s.AppendBatch(mergeStream(rng)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Merges == 0 {
		t.Fatalf("expected live-view merges, got %+v", st)
	}
	if reg.Snapshot().Counters["cluster_incremental_merges_total"] != st.Merges {
		t.Fatalf("merge counter mismatch: %+v", st)
	}
	if st.LiveClusters != 1 {
		t.Fatalf("bridge should leave one live cluster, got %d", st.LiveClusters)
	}
}

func TestLiveCampaignProjection(t *testing.T) {
	s := campstore.New(campstore.Config{})
	base := phash.Hash{Hi: 0xdeadbeef, Lo: 0xcafe}
	var first phash.Hash
	for i := 0; i < 5; i++ {
		h := base.FlipBits(120 + i)
		if i == 0 {
			first = h
		}
		if _, err := s.Append(campstore.Event{Hash: h,
			E2LD: fmt.Sprintf("dom%d.example", i), Source: campstore.SourceCrawl}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RegisterCampaign(campstore.Campaign{
		ID: 0, Category: "Techsupport", RepHash: first, RepE2LD: "dom0.example", Attacks: 5,
	}); err != nil {
		t.Fatal(err)
	}
	views := s.LiveCampaigns()
	if len(views) != 1 {
		t.Fatalf("got %d campaign views", len(views))
	}
	cv := views[0]
	if len(cv.Domains) != 5 || cv.Domains[0] != "dom0.example" || cv.Observations != 5 || cv.Merged {
		t.Fatalf("initial projection: %+v", cv)
	}
	// A milked sighting of a new domain in the same neighbourhood grows
	// the live extent without touching discovery.
	if _, err := s.Append(campstore.Event{Hash: base.FlipBits(125),
		E2LD: "milked.example", Source: campstore.SourceMilk}); err != nil {
		t.Fatal(err)
	}
	cv = s.LiveCampaigns()[0]
	if len(cv.Domains) != 6 || cv.Observations != 6 {
		t.Fatalf("after milk: %+v", cv)
	}
	if n := s.DiscoveryPoints(); n != 5 {
		t.Fatalf("milk event leaked into discovery view: %d points", n)
	}
	// Registering an unknown representative fails.
	if err := s.RegisterCampaign(campstore.Campaign{ID: 9, RepHash: phash.Hash{Hi: 1},
		RepE2LD: "nope.example"}); err == nil {
		t.Fatal("unknown representative accepted")
	}
}

func TestLiveCampaignMergeDetection(t *testing.T) {
	s := campstore.New(campstore.Config{})
	a := phash.Hash{Hi: ^uint64(0)}
	b := a.FlipBits(seqFlips(0, 19)...)
	for i := 0; i < 5; i++ {
		mustAppend(t, s, a.FlipBits(120+i), fmt.Sprintf("a%d.example", i), campstore.SourceCrawl)
		mustAppend(t, s, b.FlipBits(110+i), fmt.Sprintf("b%d.example", i), campstore.SourceCrawl)
	}
	for id, rep := range map[int]struct {
		h phash.Hash
		d string
	}{0: {a.FlipBits(120), "a0.example"}, 1: {b.FlipBits(110), "b0.example"}} {
		if err := s.RegisterCampaign(campstore.Campaign{ID: id, Category: "Lottery",
			RepHash: rep.h, RepE2LD: rep.d}); err != nil {
			t.Fatal(err)
		}
	}
	for _, cv := range s.LiveCampaigns() {
		if cv.Merged || len(cv.Domains) != 5 {
			t.Fatalf("pre-merge projection: %+v", cv)
		}
	}
	// The bridge shows up via milking: both campaigns now project onto
	// the same 11-domain live cluster and are flagged merged.
	mustAppend(t, s, a.FlipBits(seqFlips(0, 9)...), "bridge.example", campstore.SourceMilk)
	views := s.LiveCampaigns()
	if len(views) != 2 {
		t.Fatalf("got %d views", len(views))
	}
	for _, cv := range views {
		if !cv.Merged || len(cv.Domains) != 11 {
			t.Fatalf("post-merge projection: %+v", cv)
		}
	}
	if err := s.RunOracle(); err != nil {
		t.Fatal(err)
	}
}

func mustAppend(t *testing.T, s *campstore.Store, h phash.Hash, e2ld, src string) {
	t.Helper()
	if _, err := s.Append(campstore.Event{Hash: h, E2LD: e2ld, Source: src}); err != nil {
		t.Fatal(err)
	}
}
