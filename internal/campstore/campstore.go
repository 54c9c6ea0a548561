// Package campstore is the incremental campaign store: an append-only
// observation event log feeding an incremental clustering engine that
// maintains DBSCAN-equivalent labels as events arrive (ROADMAP item 2,
// the paper's continuous 14-day milking deployment).
//
// # Event log
//
// Observations are (dhash, e2LD, virtual-tick, source) events. Append
// deduplicates on the full tuple, assigns a stable 1-based sequence
// number to each new event, and exposes the log through paginated
// reads (Events), so multiple clients replaying the same stream in any
// interleaving converge on the same store state.
//
// # Incremental clustering
//
// The engine never re-runs batch DBSCAN. Instead it maintains, per
// distinct hash, exactly the state from which the batch labels are a
// pure function:
//
//   - the ε-adjacency between distinct hashes, discovered by probing a
//     mutable pigeonhole index (cluster.DynamicIndex) once per
//     new distinct hash — re-observations of a known hash cost zero
//     distance calls;
//   - per-view member lists and neighbourhood counts (a hash's count is
//     the number of view points within ε, its own members included),
//     from which core-point promotions fall out as counts cross MinPts;
//   - a union-find over core hashes (one union per core ε-edge), which
//     joins, extends and merges clusters without touching non-edges.
//
// Labels are derived on demand with zero distance calls: batch DBSCAN
// (internal/cluster, deterministic index-order seeding) assigns cluster
// ids in order of each component's minimal core point index, and gives
// a border point the id of the *first* cluster that expands into it —
// i.e. the minimum id among the core hashes adjacent to it. Both are
// pure functions of (adjacency, coreness, union-find), so incremental
// labels are *identical* to a from-scratch batch run over the same
// points — not merely equivalent up to relabeling. The property/fuzz
// tests and the periodic oracle (Config.OracleEvery) assert exactly
// that. No write builds label slices: DiscoveryLabels, LiveLabels and
// the oracle derive them when called, under the writer lock.
//
// # Live aggregates
//
// The live view keeps, at each union-find root, the aggregate a
// campaign projection reads: a refcounted distinct-e2LD set, the
// supporting event count and the number of registered campaigns on the
// component. Commits, promotions and unions update them in place
// (small-into-large on a union), and a border hash's members are
// counted in the adjacent component with the smallest minimal core
// index, re-evaluated exactly when one of those components changes. A
// publish therefore rebuilds only the campaign views whose component
// changed; it costs O(changed state), not O(store).
//
// Because the log is append-only, counts never decrease: core points
// are never demoted and clusters never split. The only merge-direction
// events are promotions and root-joins, which is what makes the
// union-find sufficient.
//
// # Views
//
// The store maintains two parallel views over the same log:
//
//   - the discovery view covers only SourceCrawl events — it is what
//     campaign discovery (core.Discover) clusters, and it depends only
//     on the crawl stream, so a daemon store that has absorbed prior
//     jobs' milking events still reproduces the one-shot report
//     byte-for-byte;
//   - the live view covers every event (crawl + milk + api) — it is
//     what /v1/campaigns serves.
//
// # Concurrency
//
// A Store is safe for concurrent use, with one writer at a time.
// AppendBatch runs start to finish under the store's writer mutex
// (validate, dedup, log, index insert and probe, edge wiring, commit,
// oracle cadence, snapshot build and store), and so does
// RegisterCampaign; concurrent writers queue on it. Each write ends by
// publishing an immutable snapshot through an atomic pointer, and the
// read endpoints Events, EventsPage, EventCount, LiveCampaigns and
// Stats serve that snapshot without taking the lock. DiscoveryLabels,
// LiveLabels and RunOracle derive labels from the incremental state,
// so they take the writer lock. See DESIGN.md §10.
//
// The writer inserts and probes a tranche's new distinct hashes one at
// a time, so each ε-edge is found exactly once, by the probe of the
// newer hash, and the state after every write is exactly that of a
// serial append-by-append run in lock-acquisition order.
package campstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/phash"
)

// Event sources. Any other non-empty string is accepted and clusters
// into the live view only.
const (
	// SourceCrawl marks crawl-time observations; only these feed the
	// discovery view.
	SourceCrawl = "crawl"
	// SourceMilk marks milking observations.
	SourceMilk = "milk"
	// SourceAPI marks observations appended through /v1/observations
	// (and is the default for an empty Source).
	SourceAPI = "api"
)

// Event is one observation: a hashed landing of e2LD at a virtual tick.
type Event struct {
	Hash   phash.Hash
	E2LD   string
	Tick   time.Time
	Source string
}

// LoggedEvent is an event as recorded: with its stable sequence number.
type LoggedEvent struct {
	Seq uint64
	Event
}

// Config configures a Store.
type Config struct {
	// Params are the DBSCAN parameters (zero value = cluster.PaperParams).
	Params cluster.Params
	// OracleEvery runs the full batch recompute oracle after every N
	// non-duplicate events (0 = never). The oracle re-clusters both
	// views from scratch and fails the triggering Append if the
	// incremental labels diverge.
	OracleEvery int
	// Obs receives the cluster_incremental_* counters, the campstore_*
	// gauges/histograms and the index band probe counter. Nil = no-op.
	Obs *obs.Registry
}

// AppendResult reports what one appended event did.
type AppendResult struct {
	// Seq is the event's stable sequence number (the prior one for a
	// duplicate).
	Seq       uint64
	Duplicate bool
	// NewPoint is set when the event introduced a new distinct
	// (hash, e2LD) pair.
	NewPoint bool
	// NewHash is set when the event introduced a new distinct hash
	// (the only case that pays distance calls).
	NewHash bool
	// DistanceCalls is the number of full Hamming verifications this
	// append performed.
	DistanceCalls int64
}

// BatchResult aggregates AppendBatch.
type BatchResult struct {
	Appended      int
	Duplicates    int
	NewPoints     int
	NewHashes     int
	DistanceCalls int64
	Probes        int64
	Candidates    int64
	// Results holds one entry per input event, in input order, up to
	// (and excluding) the first rejected event.
	Results []AppendResult
}

// View identifiers.
const (
	viewDiscovery = iota // crawl events only
	viewLive             // all events
	numViews
)

// viewState is the incremental clustering state of one view.
type viewState struct {
	pts   []int32 // global point ids in view arrival order
	idxOf []int32 // global point id -> view index (-1 = absent)

	members [][]int32 // hash id -> view indices (ascending)
	cnt     []int32   // hash id -> view points within ε (incl. own members)
	core    []bool    // hash id -> members are core points

	parent []int32 // union-find over core hash ids (-1 = not core)
	size   []int32 // union by size
	minVi  []int32 // root -> minimal core view index in the component

	ncomp  int   // components: +1 per promotion, -1 per merge
	merges int64 // unions that joined two distinct components
	cycles int64 // unions whose endpoints were already connected

	// live marks the all-sources view, the one that keeps the campaign
	// aggregates (aggregates.go).
	live bool
}

func (vs *viewState) find(a int32) int32 {
	for vs.parent[a] != a {
		vs.parent[a] = vs.parent[vs.parent[a]] // path halving
		a = vs.parent[a]
	}
	return a
}

// union joins the components of core hashes a and b, keeping the
// minimal core view index at the surviving root, and on the live view
// merges the two components' aggregates. Reports whether two distinct
// components merged.
func (s *Store) union(vs *viewState, a, b int32) bool {
	ra, rb := vs.find(a), vs.find(b)
	if ra == rb {
		vs.cycles++
		return false
	}
	if vs.size[ra] < vs.size[rb] {
		ra, rb = rb, ra
	}
	// The side with the larger minimal core index sees it drop, so its
	// borders may now prefer the merged component.
	lowered := ra
	if vs.minVi[rb] > vs.minVi[ra] {
		lowered = rb
	}
	vs.parent[rb] = ra
	vs.size[ra] += vs.size[rb]
	if vs.minVi[rb] < vs.minVi[ra] {
		vs.minVi[ra] = vs.minVi[rb]
	}
	vs.merges++
	vs.ncomp--
	if vs.live {
		s.mergeAggs(ra, rb, lowered)
	}
	return true
}

type eventKey struct {
	h      phash.Hash
	e2ld   string
	tick   int64
	source string
}

type pointKey struct {
	h    phash.Hash
	e2ld string
}

// snapshot is one immutable published state: everything the lock-free
// read endpoints serve, captured at a commit boundary. The log is a
// prefix of an append-only array whose cells below the captured length
// never change, and the campaign views are never mutated once
// published, so sharing both is safe.
type snapshot struct {
	gen uint64        // commit generation this snapshot reflects
	log []LoggedEvent // event log (append-only prefix)

	points, discPoints, livePoints int
	liveClusters                   int

	merges, cycles int64

	campaigns []CampaignView
}

// Store is the incremental campaign store. Zero value is not usable;
// call New.
type Store struct {
	params      cluster.Params
	oracleEvery int

	idx *cluster.DynamicIndex

	// mu is the writer lock. It guards every field from here to snap,
	// and is held for the whole of AppendBatch and RegisterCampaign.
	mu    sync.Mutex
	dedup map[eventKey]uint64
	log   []LoggedEvent // append-only; snapshots share its prefix
	// points are the distinct (hash, e2LD) pairs, in first-seen order.
	pointHash   []int32
	pointE2LD   []string
	pointEvents []int32 // supporting (non-duplicate) events per point
	pointIdx    map[pointKey]int32
	// adj[h] lists the distinct hashes within ε of h (excluding h).
	adj      [][]int32
	views    [numViews]viewState
	live     liveAggs
	appended uint64 // non-duplicate events committed (oracle cadence)
	gen      uint64 // published snapshots

	snap       atomic.Pointer[snapshot]
	oracleRuns atomic.Int64
	poisoned   atomic.Pointer[poisonBox] // set once on oracle divergence

	metEvents        *obs.Counter
	metMerges        *obs.Counter
	metSplitsAvoided *obs.Counter
	metOracleRuns    *obs.Counter
	metObservations  *obs.Gauge
	metBatchSize     *obs.Histogram
	metShardProbes   *obs.Counter
	metStateWait     *obs.Counter
}

type poisonBox struct{ err error }

// New builds an empty store.
func New(cfg Config) *Store {
	p := cfg.Params
	if p.MinPts == 0 {
		p = cluster.PaperParams
	}
	s := &Store{
		params:      p,
		oracleEvery: cfg.OracleEvery,
		idx:         cluster.NewDynamicIndex(p.Eps),
		dedup:       map[eventKey]uint64{},
		pointIdx:    map[pointKey]int32{},
		live:        liveAggs{campaigns: map[int]*registeredCampaign{}},

		metEvents:        cfg.Obs.Counter("cluster_incremental_events_total"),
		metMerges:        cfg.Obs.Counter("cluster_incremental_merges_total"),
		metSplitsAvoided: cfg.Obs.Counter("cluster_incremental_splits_avoided_total"),
		metOracleRuns:    cfg.Obs.Counter("cluster_incremental_oracle_runs_total"),
		metObservations:  cfg.Obs.Gauge("campstore_observations"),
		metBatchSize:     cfg.Obs.Histogram("campstore_append_batch_size"),
		metShardProbes:   cfg.Obs.Counter("cluster_index_shard_probes_total"),
		metStateWait:     cfg.Obs.Counter("campstore_state_lock_wait_ns_total"),
	}
	s.views[viewLive].live = true
	s.snap.Store(&snapshot{})
	return s
}

// Params returns the DBSCAN parameters the store clusters under.
func (s *Store) Params() cluster.Params { return s.params }

// Append records one event and integrates it into both views. The
// returned error is non-nil only when the event's E2LD is empty or the
// periodic oracle detected divergence (a bug — the store is then
// poisoned and every later Append keeps failing).
func (s *Store) Append(ev Event) (AppendResult, error) {
	br, err := s.AppendBatch([]Event{ev})
	if len(br.Results) == 1 {
		return br.Results[0], err
	}
	return AppendResult{}, err
}

// pendingEvent is one accepted non-duplicate event of a tranche.
type pendingEvent struct {
	ev  Event
	ri  int   // index into BatchResult.Results
	hid int32 // the event's distinct-hash id
	// newHash marks the tranche's first event of a hash it introduced:
	// the event that paid the index probe, at dist distance calls.
	newHash bool
	dist    int64
}

// AppendBatch appends a tranche of events under the writer lock.
// Events are deduplicated and sequenced in input order, the tranche's
// new distinct hashes are inserted into the index and probed one at a
// time, the events commit in input order, and one snapshot is
// published. Concurrent AppendBatch calls queue on the lock, so each
// tranche's events commit contiguously.
//
// On a rejected event (empty E2LD) the earlier events of the tranche
// are still appended and committed, Results covers exactly those, and
// the error describes the rejected one.
func (s *Store) AppendBatch(events []Event) (BatchResult, error) {
	var out BatchResult
	t0 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metStateWait.Add(time.Since(t0).Nanoseconds())
	if err := s.poisonErr(); err != nil {
		return out, err
	}
	s.metBatchSize.Observe(int64(len(events)))

	// Log: dedup on the full tuple, assign sequence numbers.
	var pend []pendingEvent
	var firstErr error
	for _, ev := range events {
		if ev.E2LD == "" {
			firstErr = fmt.Errorf("campstore: event with empty e2LD")
			break
		}
		if ev.Source == "" {
			ev.Source = SourceAPI
		}
		k := eventKey{ev.Hash, ev.E2LD, ev.Tick.UnixNano(), ev.Source}
		if seq, ok := s.dedup[k]; ok {
			out.Results = append(out.Results, AppendResult{Seq: seq, Duplicate: true})
			out.Duplicates++
			continue
		}
		seq := uint64(len(s.log) + 1)
		s.log = append(s.log, LoggedEvent{Seq: seq, Event: ev})
		s.dedup[k] = seq
		out.Results = append(out.Results, AppendResult{Seq: seq})
		pend = append(pend, pendingEvent{ev: ev, ri: len(out.Results) - 1})
		out.Appended++
	}
	s.metEvents.Add(int64(out.Appended))
	s.metObservations.Set(int64(len(s.log)))
	if len(pend) == 0 {
		return out, firstErr
	}

	// Index: insert each distinct hash the tranche introduces and probe
	// it straight away, in tranche order. The probe finds every earlier
	// hash within ε, so each edge is found once, by its newer endpoint.
	for i := range pend {
		pe := &pend[i]
		id, isNew := s.idx.Insert(pe.ev.Hash)
		pe.hid = id
		if !isNew {
			continue
		}
		nbrs, st := s.idx.ProbeNeighbours(pe.ev.Hash, id)
		pe.newHash, pe.dist = true, st.DistanceCalls
		out.Probes += st.Probes
		out.Candidates += st.Candidates
		s.wireHashLocked(id, nbrs)
	}
	s.metShardProbes.Add(out.Probes)

	// Commit: integrate the events into both views in tranche order,
	// firing promotions/unions and the oracle cadence exactly as an
	// append-by-append run would.
	for _, pe := range pend {
		res := &out.Results[pe.ri]
		if err := s.commitLocked(pe, res); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		if res.NewPoint {
			out.NewPoints++
		}
		if res.NewHash {
			out.NewHashes++
		}
		out.DistanceCalls += res.DistanceCalls
	}
	s.publishLocked()
	return out, firstErr
}

// wireHashLocked adds the per-hash state of a newly inserted hash (ids
// are dense, so id == len(s.adj)) and splices its ε-edges into the
// adjacency. Its counts are seeded from its neighbours' members; it has
// no members yet, so neighbours' counts are untouched, and any member
// committed to a neighbour later bumps this hash's count through the
// new edge.
func (s *Store) wireHashLocked(id int32, nbrs []int32) {
	s.adj = append(s.adj, nbrs)
	for _, n := range nbrs {
		s.adj[n] = append(s.adj[n], id)
	}
	for v := range s.views {
		vs := &s.views[v]
		var c int32
		for _, n := range nbrs {
			c += int32(len(vs.members[n]))
		}
		vs.members = append(vs.members, nil)
		vs.cnt = append(vs.cnt, c)
		vs.core = append(vs.core, false)
		vs.parent = append(vs.parent, -1)
		vs.size = append(vs.size, 0)
		vs.minVi = append(vs.minVi, -1)
	}
	s.live.wireHash()
}

// commitLocked integrates one logged event into the views. Its hash is
// wired by now.
func (s *Store) commitLocked(pe pendingEvent, res *AppendResult) error {
	ev := pe.ev
	pk := pointKey{ev.Hash, ev.E2LD}
	pid, known := s.pointIdx[pk]
	if !known {
		res.NewPoint = true
		if pe.newHash {
			res.NewHash = true
			res.DistanceCalls = pe.dist
		}
		pid = int32(len(s.pointHash))
		s.pointHash = append(s.pointHash, pe.hid)
		s.pointE2LD = append(s.pointE2LD, ev.E2LD)
		s.pointEvents = append(s.pointEvents, 0)
		s.pointIdx[pk] = pid
		for v := range s.views {
			s.views[v].idxOf = append(s.views[v].idxOf, -1)
		}
		s.addToView(&s.views[viewLive], pid)
	}
	s.pointEvents[pid]++
	if a := s.countedIn(pe.hid); a != nil {
		a.events++
		s.live.touch(a)
	}
	if ev.Source == SourceCrawl && s.views[viewDiscovery].idxOf[pid] < 0 {
		s.addToView(&s.views[viewDiscovery], pid)
	}
	s.appended++
	if s.oracleEvery > 0 && s.appended%uint64(s.oracleEvery) == 0 {
		if err := s.runOracleLocked(s.liveCampaignsLocked()); err != nil {
			s.poison(err)
			return err
		}
	}
	return nil
}

// addToView appends point pid to the view: bump the ε-neighbourhood
// count of its hash and every adjacent hash, then fire any promotions
// those increments unlocked.
func (s *Store) addToView(vs *viewState, pid int32) {
	vi := int32(len(vs.pts))
	vs.pts = append(vs.pts, pid)
	vs.idxOf[pid] = vi
	hid := s.pointHash[pid]
	first := len(vs.members[hid]) == 0
	vs.members[hid] = append(vs.members[hid], vi)
	vs.cnt[hid]++
	for _, n := range s.adj[hid] {
		vs.cnt[n]++
	}
	if vs.live {
		if a := s.countedIn(hid); a != nil {
			a.add(s.pointE2LD[pid], 1, 0)
			s.live.touch(a)
		}
	}
	s.maybePromote(vs, hid)
	if vs.live && first && !vs.core[hid] {
		s.addBorder(hid)
	}
	for _, n := range s.adj[hid] {
		s.maybePromote(vs, n)
	}
}

// maybePromote turns hid into a core hash once it has members in the
// view and its ε-neighbourhood reaches MinPts, joining it to every
// already-core neighbour. A hash whose count crossed MinPts while it
// had no view members is promoted later, when its first member arrives.
// On the live view the new core's members leave the component they
// bordered for their own, and its non-core neighbours are re-placed.
func (s *Store) maybePromote(vs *viewState, hid int32) {
	if vs.core[hid] || len(vs.members[hid]) == 0 || int(vs.cnt[hid]) < s.params.MinPts {
		return
	}
	vs.core[hid] = true
	vs.parent[hid] = hid
	vs.size[hid] = 1
	vs.minVi[hid] = vs.members[hid][0]
	vs.ncomp++
	if vs.live {
		s.promoteAgg(hid)
	}
	for _, n := range s.adj[hid] {
		if !vs.core[n] {
			continue
		}
		merged := s.union(vs, hid, n)
		if vs.live {
			if merged {
				s.metMerges.Inc()
			} else {
				s.metSplitsAvoided.Inc()
			}
		}
	}
	if vs.live {
		s.borderNeighbours(hid)
	}
}

// labelsLocked derives the view's labels from the incremental state —
// zero distance calls. Cluster ids are assigned in order of each
// component's minimal core view index (exactly batch DBSCAN's seeding
// order); border points take the minimum id among adjacent core hashes
// (exactly the first cluster that would have expanded into them).
// Every call builds a fresh slice, which the caller owns.
func (s *Store) labelsLocked(v int) ([]int, int) {
	vs := &s.views[v]
	nh := int32(len(vs.members))
	// Rank the components by minimal core view index.
	type comp struct{ root, minVi int32 }
	var comps []comp
	rank := make(map[int32]int)
	for hid := int32(0); hid < nh; hid++ {
		if !vs.core[hid] {
			continue
		}
		r := vs.find(hid)
		if _, seen := rank[r]; !seen {
			rank[r] = -1
			comps = append(comps, comp{r, vs.minVi[r]})
		}
	}
	// Insertion sort by minVi: component counts are small and mostly
	// already ordered (ids only churn on merges).
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && comps[j].minVi < comps[j-1].minVi; j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	for i, c := range comps {
		rank[c.root] = i
	}
	labels := make([]int, len(vs.pts))
	for hid := int32(0); hid < nh; hid++ {
		if len(vs.members[hid]) == 0 {
			continue
		}
		lbl := cluster.Noise
		if vs.core[hid] {
			lbl = rank[vs.find(hid)]
		} else {
			for _, g := range s.adj[hid] {
				if !vs.core[g] {
					continue
				}
				if id := rank[vs.find(g)]; lbl == cluster.Noise || id < lbl {
					lbl = id
				}
			}
		}
		for _, vi := range vs.members[hid] {
			labels[vi] = lbl
		}
	}
	return labels, len(comps)
}

// publishLocked captures the current committed state and installs it as
// the read snapshot: counters, the log as a prefix of its append-only
// array, and the campaign projection, in which only the views whose
// component changed since the last publish are rebuilt.
func (s *Store) publishLocked() {
	s.gen++
	live := &s.views[viewLive]
	s.snap.Store(&snapshot{
		gen:          s.gen,
		log:          s.log[:len(s.log):len(s.log)],
		points:       len(s.pointHash),
		discPoints:   len(s.views[viewDiscovery].pts),
		livePoints:   len(live.pts),
		liveClusters: live.ncomp,
		merges:       live.merges,
		cycles:       live.cycles,
		campaigns:    s.liveCampaignsLocked(),
	})
}

func (s *Store) poison(err error) {
	s.poisoned.CompareAndSwap(nil, &poisonBox{err: err})
}

func (s *Store) poisonErr() error {
	if b := s.poisoned.Load(); b != nil {
		return fmt.Errorf("campstore: store poisoned by oracle divergence: %w", b.err)
	}
	return nil
}

// DiscoveryLabels returns the crawl-view labels (one per crawl point,
// in crawl-point arrival order) and the cluster count, derived under
// the writer lock. The caller owns the slice.
func (s *Store) DiscoveryLabels() ([]int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.labelsLocked(viewDiscovery)
}

// LiveLabels returns the all-sources labels (one per point, in point
// arrival order) and the cluster count, derived under the writer lock.
// The caller owns the slice.
func (s *Store) LiveLabels() ([]int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.labelsLocked(viewLive)
}

// DiscoveryIndex returns the discovery-view index of the (hash, e2LD)
// point, if it has one.
func (s *Store) DiscoveryIndex(h phash.Hash, e2ld string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pid, ok := s.pointIdx[pointKey{h, e2ld}]
	if !ok {
		return 0, false
	}
	vi := s.views[viewDiscovery].idxOf[pid]
	if vi < 0 {
		return 0, false
	}
	return int(vi), true
}

// DiscoveryMatches reports whether the discovery view is exactly the
// n-point sequence described by at (point i's hash and e2LD) — the
// coherence precondition for serving a run's discovery labels from a
// shared store: the store's crawl view must be the run's observation
// sequence, no more, no less, in the same order.
func (s *Store) DiscoveryMatches(n int, at func(int) (phash.Hash, string)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := &s.views[viewDiscovery]
	if len(vs.pts) != n {
		return false
	}
	for i, pid := range vs.pts {
		h, e2ld := at(i)
		if s.idx.Hash(s.pointHash[pid]) != h || s.pointE2LD[pid] != e2ld {
			return false
		}
	}
	return true
}

// DiscoveryPoints returns the size of the discovery (crawl) view in
// the published snapshot.
func (s *Store) DiscoveryPoints() int { return s.snap.Load().discPoints }

// Points returns the number of distinct (hash, e2LD) pairs in the
// published snapshot.
func (s *Store) Points() int { return s.snap.Load().points }

// EventCount returns the number of logged (non-duplicate) events in
// the published snapshot.
func (s *Store) EventCount() int { return len(s.snap.Load().log) }

// Events returns up to limit events with Seq > after, in sequence
// order — the pagination contract of GET /v1/observations. limit <= 0
// means no limit. Lock-free: reads the published snapshot's log.
func (s *Store) Events(after uint64, limit int) []LoggedEvent {
	page, _ := s.EventsPage(after, limit)
	return page
}

// EventsPage is Events plus the log length, both read from one
// published snapshot, so a page and its total always agree: the page
// ends before the total exactly when more events follow it.
func (s *Store) EventsPage(after uint64, limit int) ([]LoggedEvent, int) {
	log := s.snap.Load().log
	if after >= uint64(len(log)) {
		return nil, len(log)
	}
	page := log[after:]
	if limit > 0 && len(page) > limit {
		page = page[:limit]
	}
	return append([]LoggedEvent(nil), page...), len(log)
}

// DistanceCalls returns the full Hamming verifications performed over
// the store's lifetime.
func (s *Store) DistanceCalls() int64 { return s.idx.DistanceCalls() }

// Stats snapshots the store.
type Stats struct {
	Events          int
	Points          int
	DiscoveryPoints int
	LivePoints      int
	LiveClusters    int
	Merges          int64 // live-view component merges
	SplitsAvoided   int64 // live-view unions already connected
	OracleRuns      int64
	SnapshotGen     uint64 // commit generation of the served snapshot
	Index           cluster.DynamicIndexStats
}

// Stats returns a read-side snapshot — served from the published
// snapshot plus the index counters, without taking the writer lock.
func (s *Store) Stats() Stats {
	sn := s.snap.Load()
	return Stats{
		Events:          len(sn.log),
		Points:          sn.points,
		DiscoveryPoints: sn.discPoints,
		LivePoints:      sn.livePoints,
		LiveClusters:    sn.liveClusters,
		Merges:          sn.merges,
		SplitsAvoided:   sn.cycles,
		OracleRuns:      s.oracleRuns.Load(),
		SnapshotGen:     sn.gen,
		Index:           s.idx.Stats(),
	}
}
