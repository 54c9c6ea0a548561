package campstore_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/campstore"
	"repro/internal/cluster"
	"repro/internal/phash"
)

// projModel replays a stream the way the store should see it and
// projects registered campaigns from scratch: batch labels over the
// live point sequence, then per-cluster domain sets, event counts and
// campaign uses. It shares no code with the store's live aggregates.
type projModel struct {
	params    cluster.Params
	seen      map[campstore.Event]bool
	idx       map[projKey]int
	points    []projKey
	events    []int // supporting events per point
	campaigns map[int]campstore.Campaign
}

type projKey struct {
	h    phash.Hash
	e2ld string
}

func newProjModel(params cluster.Params) *projModel {
	return &projModel{params: params, seen: map[campstore.Event]bool{},
		idx: map[projKey]int{}, campaigns: map[int]campstore.Campaign{}}
}

func (m *projModel) apply(ev campstore.Event) {
	if ev.Source == "" {
		ev.Source = campstore.SourceAPI
	}
	if m.seen[ev] {
		return
	}
	m.seen[ev] = true
	k := projKey{ev.Hash, ev.E2LD}
	i, ok := m.idx[k]
	if !ok {
		i = len(m.points)
		m.idx[k] = i
		m.points = append(m.points, k)
		m.events = append(m.events, 0)
	}
	m.events[i]++
}

func (m *projModel) want(t *testing.T) []campstore.CampaignView {
	t.Helper()
	if len(m.campaigns) == 0 {
		return nil
	}
	hashes := make([]phash.Hash, len(m.points))
	for i, p := range m.points {
		hashes[i] = p.h
	}
	labels, _ := batchLabels(t, hashes, m.params)
	domains := map[int]map[string]bool{}
	events := map[int]int{}
	for i, p := range m.points {
		if l := labels[i]; l != cluster.Noise {
			if domains[l] == nil {
				domains[l] = map[string]bool{}
			}
			domains[l][p.e2ld] = true
			events[l] += m.events[i]
		}
	}
	uses := map[int]int{}
	var ids []int
	for id, c := range m.campaigns {
		ids = append(ids, id)
		if l := labels[m.idx[projKey{c.RepHash, c.RepE2LD}]]; l != cluster.Noise {
			uses[l]++
		}
	}
	sort.Ints(ids)
	var out []campstore.CampaignView
	for _, id := range ids {
		c := m.campaigns[id]
		rep := m.idx[projKey{c.RepHash, c.RepE2LD}]
		cv := campstore.CampaignView{Campaign: c}
		if l := labels[rep]; l != cluster.Noise {
			for d := range domains[l] {
				cv.Domains = append(cv.Domains, d)
			}
			sort.Strings(cv.Domains)
			cv.Observations, cv.Merged = events[l], uses[l] > 1
		} else {
			cv.Domains, cv.Observations = []string{c.RepE2LD}, m.events[rep]
		}
		out = append(out, cv)
	}
	return out
}

// projHarness drives a store and its model in lockstep.
type projHarness struct {
	t *testing.T
	s *campstore.Store
	m *projModel
}

func newProjHarness(t *testing.T, params cluster.Params) *projHarness {
	return &projHarness{t: t, s: campstore.New(campstore.Config{Params: params}), m: newProjModel(params)}
}

func (h *projHarness) append(evs ...campstore.Event) {
	h.t.Helper()
	if _, err := h.s.AppendBatch(evs); err != nil {
		h.t.Fatalf("append: %v", err)
	}
	for _, ev := range evs {
		h.m.apply(ev)
	}
}

func (h *projHarness) register(c campstore.Campaign) {
	h.t.Helper()
	if err := h.s.RegisterCampaign(c); err != nil {
		h.t.Fatalf("register %d: %v", c.ID, err)
	}
	c.ScamPhones = append([]string(nil), c.ScamPhones...)
	h.m.campaigns[c.ID] = c
}

// check asserts the published projection equals the model's, view for
// view, and that the live labels and cluster count match batch DBSCAN.
func (h *projHarness) check(step string) {
	h.t.Helper()
	got, want := h.s.LiveCampaigns(), h.m.want(h.t)
	if len(got) != len(want) {
		h.t.Fatalf("%s: %d campaign views, want %d", step, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			h.t.Fatalf("%s: campaign %d\n got %+v\nwant %+v", step, want[i].ID, got[i], want[i])
		}
	}
	hashes := make([]phash.Hash, len(h.m.points))
	for i, p := range h.m.points {
		hashes[i] = p.h
	}
	gotL, gotN := h.s.LiveLabels()
	wantL, wantN := batchLabels(h.t, hashes, h.m.params)
	assertLabelsEqual(h.t, "live", len(hashes), gotL, gotN, wantL, wantN)
	if st := h.s.Stats(); st.LiveClusters != wantN {
		h.t.Fatalf("%s: Stats().LiveClusters = %d, batch has %d clusters", step, st.LiveClusters, wantN)
	}
}

// projStream draws a random stream over a chain of cluster bases 16
// bits apart: members sit 0–3 bits off a base, bridges halfway between
// two bases, and a share of events re-observe a known point at a new
// tick. It yields cores, borders, noise, merges and repeat events.
func projStream(rng *rand.Rand, n int) []campstore.Event {
	bases := []phash.Hash{randHash(rng)}
	for i := 1; i < 4; i++ {
		bases = append(bases, bases[i-1].FlipBits(seqFlips(16*i, 16*i+15)...))
	}
	var evs []campstore.Event
	for len(evs) < n {
		tick := time.Unix(int64(len(evs)), 0)
		if len(evs) > 0 && rng.Intn(5) == 0 {
			prev := evs[rng.Intn(len(evs))]
			prev.Tick, prev.Source = tick, campstore.SourceMilk
			evs = append(evs, prev)
			continue
		}
		k := rng.Intn(len(bases))
		h := bases[k]
		if k+1 < len(bases) && rng.Intn(4) == 0 {
			h = h.FlipBits(seqFlips(16*(k+1), 16*(k+1)+7)...) // 8 bits to either base
		}
		for f := rng.Intn(4); f > 0; f-- {
			h = h.FlipBits(96 + rng.Intn(32))
		}
		src := campstore.SourceCrawl
		if rng.Intn(3) == 0 {
			src = campstore.SourceMilk
		}
		evs = append(evs, campstore.Event{Hash: h, E2LD: fmt.Sprintf("b%dd%d.example", k, rng.Intn(5)),
			Source: src, Tick: tick})
	}
	return evs
}

// borderMoveStream is a MinPts=4 world in which a border point x
// changes component after a merge. Three clusters arrive oldest first:
// P, Q, R, each a core hash with three satellites 12 bits out. x sits
// 10 bits from Q's core and from R's and has a 3-point neighbourhood,
// so it borders both and joins Q, the older. A two-hash bridge then
// merges R with P, the oldest, and x must move to the merged cluster.
// It returns the stream and the hashes of the cores of P, Q, R and x.
func borderMoveStream(rng *rand.Rand) (evs []campstore.Event, p, q, r, x phash.Hash) {
	x = randHash(rng)
	q = x.FlipBits(seqFlips(0, 9)...)
	r = x.FlipBits(seqFlips(10, 19)...)
	p = r.FlipBits(seqFlips(92, 111)...)
	bridge := r.FlipBits(seqFlips(92, 101)...) // 10 bits from r and from p
	add := func(h phash.Hash, dom string) {
		evs = append(evs, campstore.Event{Hash: h, E2LD: dom, Source: campstore.SourceCrawl,
			Tick: time.Unix(int64(len(evs)), 0)})
	}
	cluster := func(name string, core phash.Hash, sats ...int) {
		add(core, name+".example")
		for i, lo := range sats {
			add(core.FlipBits(seqFlips(lo, lo+11)...), fmt.Sprintf("%s%d.example", name, i))
		}
	}
	cluster("p", p, 20, 32, 44)
	cluster("q", q, 20, 32, 44)
	cluster("r", r, 56, 68, 80)
	add(x, "x.example")
	add(bridge, "bridge.example")
	add(bridge.FlipBits(112), "bridge2.example")
	return evs, p, q, r, x
}

// TestLiveCampaignsMatchReferenceEveryPrefix checks the live aggregates
// against a from-scratch projection of batch labels after every
// tranche: random streams at MinPts 3 and 4 with campaigns registered
// (and re-registered) in between, a border that changes component
// after a merge, two registered campaigns that merge, a border
// representative, and repeat events that bump Observations only. A
// projection published early must stay unchanged through 1,000 later
// appends.
func TestLiveCampaignsMatchReferenceEveryPrefix(t *testing.T) {
	for _, minPts := range []int{3, 4} {
		params := cluster.Params{Eps: 0.1, MinPts: minPts}
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("random/minpts%d/seed%d", minPts, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				h := newProjHarness(t, params)
				stream := projStream(rng, 160)
				for off, tranche := 0, 0; off < len(stream); tranche++ {
					n := 1 + rng.Intn(6)
					if off+n > len(stream) {
						n = len(stream) - off
					}
					h.append(stream[off : off+n]...)
					if rng.Intn(3) == 0 {
						rep := stream[rng.Intn(off+n)]
						h.register(campstore.Campaign{ID: rng.Intn(8), Category: "Techsupport",
							RepHash: rep.Hash, RepE2LD: rep.E2LD, Attacks: tranche,
							ScamPhones: []string{fmt.Sprintf("+1-800-%03d", tranche)}})
					}
					off += n
					h.check(fmt.Sprintf("tranche %d", tranche))
				}
				if err := h.s.RunOracle(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}

	params := cluster.Params{Eps: 0.1, MinPts: 4}
	t.Run("border-moves-after-merge", func(t *testing.T) {
		stream, p, q, r, x := borderMoveStream(rand.New(rand.NewSource(17)))
		h := newProjHarness(t, params)
		reps := map[phash.Hash]int{p: 0, q: 1, r: 2, x: 3}
		domainsOf := func(id int) []string {
			for _, cv := range h.s.LiveCampaigns() {
				if cv.ID == id {
					return cv.Domains
				}
			}
			t.Fatalf("campaign %d not projected", id)
			return nil
		}
		for i, ev := range stream {
			h.append(ev)
			if id, ok := reps[ev.Hash]; ok {
				h.register(campstore.Campaign{ID: id, Category: "Lottery", RepHash: ev.Hash, RepE2LD: ev.E2LD})
			}
			h.check(fmt.Sprintf("event %d", i))
			if ev.E2LD == "x.example" {
				// x is a border of Q and R; Q is older.
				if d := domainsOf(3); !reflect.DeepEqual(d, domainsOf(1)) || len(d) != 5 {
					t.Fatalf("border x projects to %v, want Q's cluster plus x", d)
				}
			}
		}
		// R merged into P's cluster: x moved there, and campaigns 0 and 2
		// (P and R) now share it with campaign 3.
		views := h.s.LiveCampaigns()
		if !views[0].Merged || !views[2].Merged || !views[3].Merged || views[1].Merged {
			t.Fatalf("merge flags after bridge: %+v", views)
		}
		if !reflect.DeepEqual(views[3].Domains, views[0].Domains) || len(views[3].Domains) != 11 {
			t.Fatalf("border x did not move to the merged cluster: %v", views[3].Domains)
		}
		// A repeat event on a known point bumps Observations only.
		before := h.s.LiveCampaigns()[3]
		h.append(campstore.Event{Hash: x, E2LD: "x.example", Source: campstore.SourceMilk, Tick: time.Unix(999, 0)})
		h.check("repeat event")
		after := h.s.LiveCampaigns()[3]
		if after.Observations != before.Observations+1 || !reflect.DeepEqual(after.Domains, before.Domains) {
			t.Fatalf("repeat event: %d -> %d observations, domains %v -> %v",
				before.Observations, after.Observations, before.Domains, after.Domains)
		}
		if err := h.s.RunOracle(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("border-moves-after-merge/shuffled", func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		stream, _, _, _, _ := borderMoveStream(rng)
		for shuffle := 0; shuffle < 8; shuffle++ {
			evs := append([]campstore.Event(nil), stream...)
			rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
			h := newProjHarness(t, params)
			for i, ev := range evs {
				h.append(ev)
				h.register(campstore.Campaign{ID: i % 5, RepHash: ev.Hash, RepE2LD: ev.E2LD})
				h.check(fmt.Sprintf("shuffle %d event %d", shuffle, i))
			}
		}
	})

	t.Run("snapshots-immutable", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		h := newProjHarness(t, cluster.PaperParams)
		stream := projStream(rng, 1040)
		h.append(stream[:40]...)
		for id := 0; id < 4; id++ {
			rep := stream[rng.Intn(40)]
			h.register(campstore.Campaign{ID: id, RepHash: rep.Hash, RepE2LD: rep.E2LD, ScamPhones: []string{"+1-888-000"}})
		}
		early := h.s.LiveCampaigns()
		saved := make([]campstore.CampaignView, len(early))
		for i, cv := range early {
			saved[i] = cv
			saved[i].Domains = append([]string(nil), cv.Domains...)
			saved[i].ScamPhones = append([]string(nil), cv.ScamPhones...)
		}
		for _, ev := range stream[40:] {
			h.append(ev)
		}
		h.check("after 1000 appends")
		if !reflect.DeepEqual(early, saved) {
			t.Fatalf("an early published projection changed under later appends:\n got %+v\nwant %+v", early, saved)
		}
		if reflect.DeepEqual(h.s.LiveCampaigns(), saved) {
			t.Fatal("1000 appends near the campaigns left the projection unchanged; the check saw nothing")
		}
	})
}
