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
// that.
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
// A Store is safe for concurrent use, and writers no longer serialize
// on one store-wide mutex: AppendBatch stages each tranche through
// three short critical sections on independent locks, and the hot read
// endpoints take no lock at all. See DESIGN.md §10 for the full
// model; the shape is:
//
//   - logMu guards only dedup + sequence assignment + the chunked
//     append-only event log (readers of the log are lock-free);
//   - new distinct hashes are claimed, registered and probed against
//     the band-sharded cluster.DynamicIndex with no store-wide lock —
//     the index's per-band locks are the only serialization, and
//     Hamming verification holds no locks at all;
//   - stateMu guards the clustering state (adjacency, counts,
//     union-find, views) for two short sections per tranche: edge
//     wiring, then per-event commits in tranche order;
//   - every committed tranche publishes an immutable snapshot through
//     an atomic pointer; Events, LiveCampaigns, labels, Stats and the
//     on-demand oracle read the snapshot and never block appends.
//
// Label equivalence is preserved under concurrency because commits are
// still serialized (by stateMu) into *some* arrival order, and the
// incremental state is maintained exactly for that order — the batch
// oracle holds after every commit, whichever interleaving won.
package campstore

import (
	"fmt"
	"runtime"
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
	// gauges/histograms and the index shard probe counter. Nil = no-op.
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

	merges int64 // unions that joined two distinct components
	cycles int64 // unions whose endpoints were already connected

	dirty     bool
	labels    []int
	nclusters int
}

func (vs *viewState) find(a int32) int32 {
	for vs.parent[a] != a {
		vs.parent[a] = vs.parent[vs.parent[a]] // path halving
		a = vs.parent[a]
	}
	return a
}

// union joins the components of core hashes a and b, keeping the
// minimal core view index at the surviving root. Reports whether two
// distinct components merged.
func (vs *viewState) union(a, b int32) bool {
	ra, rb := vs.find(a), vs.find(b)
	if ra == rb {
		vs.cycles++
		return false
	}
	if vs.size[ra] < vs.size[rb] {
		ra, rb = rb, ra
	}
	vs.parent[rb] = ra
	vs.size[ra] += vs.size[rb]
	if vs.minVi[rb] < vs.minVi[ra] {
		vs.minVi[ra] = vs.minVi[rb]
	}
	vs.merges++
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

// logChunkBits sizes the chunks of the append-only event log: 512
// events per chunk.
const logChunkBits = 9

type logChunk [1 << logChunkBits]LoggedEvent

// eventLog is a chunked append-only log. Appends are serialized by the
// store's logMu; reads are lock-free. Readers must load the length
// FIRST and the chunk directory second: the writer installs a grown
// directory before advancing the length, so a directory loaded after
// the length always covers every cell below it.
type eventLog struct {
	chunks atomic.Pointer[[]*logChunk]
	n      atomic.Int64
}

func (l *eventLog) len() int { return int(l.n.Load()) }

func (l *eventLog) at(chunks *[]*logChunk, i int64) *LoggedEvent {
	return &(*chunks)[i>>logChunkBits][i&(1<<logChunkBits-1)]
}

// append stores ev at the next slot. Caller must hold logMu.
func (l *eventLog) append(ev LoggedEvent) {
	i := l.n.Load()
	ci, off := int(i>>logChunkBits), i&(1<<logChunkBits-1)
	chunks := l.chunks.Load()
	if chunks == nil || ci == len(*chunks) {
		var next []*logChunk
		if chunks != nil {
			next = append(next, *chunks...)
		}
		next = append(next, new(logChunk))
		l.chunks.Store(&next)
		chunks = &next
	}
	(*chunks)[ci][off] = ev
	l.n.Store(i + 1)
}

// snapshot is one immutable published state: everything the read
// endpoints serve, captured at a commit boundary. Slices are either
// freshly built at publish time or append-only prefixes whose cells
// below the captured length never change, so sharing them is safe.
type snapshot struct {
	gen    uint64 // commit generation this snapshot reflects
	events int    // log length at publish

	pointHash []int32 // point id -> hash id (append-only prefix)

	discPts, livePts       []int32 // view point ids (append-only prefixes)
	discLabels, liveLabels []int
	discClusters, liveClusters int

	merges, cycles int64

	campaigns []CampaignView
}

// Store is the incremental campaign store. Zero value is not usable;
// call New.
type Store struct {
	params      cluster.Params
	oracleEvery int

	idx *cluster.DynamicIndex

	// logMu guards dedup and sequence assignment. Lock hierarchy:
	// logMu and stateMu are never held together; resolveMu is a leaf.
	logMu sync.Mutex
	dedup map[eventKey]uint64
	log   eventLog

	// resolveMu guards the in-flight hash registry: hashes claimed in
	// the index whose ε-adjacency is not wired into the store yet. A
	// tranche that needs a hash claimed by another in-flight tranche
	// waits on its channel (outside all locks) before committing.
	resolveMu sync.Mutex
	resolving map[phash.Hash]chan struct{}

	// stateMu guards the clustering state and the campaign registry.
	stateMu sync.Mutex
	// points are the distinct (hash, e2LD) pairs, in first-seen order.
	pointHash   []int32
	pointE2LD   []string
	pointEvents []int32 // supporting (non-duplicate) events per point
	pointIdx    map[pointKey]int32
	// adj[h] lists the distinct hashes within ε of h (excluding h).
	adj      [][]int32
	edgeSeen map[uint64]struct{} // packed (min,max) hash id pairs wired
	views    [numViews]viewState
	campaigns map[int]registeredCampaign
	appended  uint64 // non-duplicate events committed (oracle cadence)

	gen        atomic.Uint64 // commit generations (written under stateMu)
	snap       atomic.Pointer[snapshot]
	oracleRuns atomic.Int64
	poisoned   atomic.Pointer[poisonBox] // set once on oracle divergence

	metEvents        *obs.Counter
	metMerges        *obs.Counter
	metSplitsAvoided *obs.Counter
	metOracleRuns    *obs.Counter
	metObservations  *obs.Gauge
	metBatchSize     *obs.Histogram
	metSnapAge       *obs.Gauge
	metShardProbes   *obs.Counter
	metLogWait       *obs.Counter
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
		resolving:   map[phash.Hash]chan struct{}{},
		pointIdx:    map[pointKey]int32{},
		edgeSeen:    map[uint64]struct{}{},
		campaigns:   map[int]registeredCampaign{},

		metEvents:        cfg.Obs.Counter("cluster_incremental_events_total"),
		metMerges:        cfg.Obs.Counter("cluster_incremental_merges_total"),
		metSplitsAvoided: cfg.Obs.Counter("cluster_incremental_splits_avoided_total"),
		metOracleRuns:    cfg.Obs.Counter("cluster_incremental_oracle_runs_total"),
		metObservations:  cfg.Obs.Gauge("campstore_observations"),
		metBatchSize:     cfg.Obs.Histogram("campstore_append_batch_size"),
		metSnapAge:       cfg.Obs.Gauge("campstore_snapshot_age_ticks"),
		metShardProbes:   cfg.Obs.Counter("cluster_index_shard_probes_total"),
		metLogWait:       cfg.Obs.Counter("campstore_log_lock_wait_ns_total"),
		metStateWait:     cfg.Obs.Counter("campstore_state_lock_wait_ns_total"),
	}
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
	ev Event
	ri int // index into BatchResult.Results
}

// hashResolve tracks one distinct hash of a tranche through the claim/
// register/probe pipeline.
type hashResolve struct {
	h     phash.Hash
	id    int32
	owned bool            // this tranche claimed the hash
	wait  chan struct{}   // non-nil: another in-flight tranche owns it
	nbrs  []int32         // probe result (owned hashes only)
	stats cluster.ProbeStats
	spent bool // NewHash/DistanceCalls already attributed to an event
}

// AppendBatch appends a tranche of events. Events are deduplicated and
// sequenced in input order; the whole tranche then flows through the
// staged ingest (index claims/probes with no store lock, short wiring
// and commit sections under stateMu) and publishes one snapshot.
// Multiple AppendBatch calls run concurrently; each tranche's events
// commit contiguously in input order.
//
// On a rejected event (empty E2LD) the earlier events of the tranche
// are still appended and committed, Results covers exactly those, and
// the error describes the rejected one.
func (s *Store) AppendBatch(events []Event) (BatchResult, error) {
	var out BatchResult
	if err := s.poisonErr(); err != nil {
		return out, err
	}
	s.metBatchSize.Observe(int64(len(events)))

	// Stage 1 — log: dedup on the full tuple, assign sequence numbers.
	var pend []pendingEvent
	var firstErr error
	t0 := time.Now()
	s.logMu.Lock()
	s.metLogWait.Add(time.Since(t0).Nanoseconds())
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
		seq := uint64(s.log.len() + 1)
		s.log.append(LoggedEvent{Seq: seq, Event: ev})
		s.dedup[k] = seq
		out.Results = append(out.Results, AppendResult{Seq: seq})
		pend = append(pend, pendingEvent{ev: ev, ri: len(out.Results) - 1})
		out.Appended++
	}
	s.metEvents.Add(int64(out.Appended))
	s.metObservations.Set(int64(s.log.len()))
	s.logMu.Unlock()

	if len(pend) == 0 {
		if firstErr == nil && out.Duplicates > 0 {
			s.publishCurrent() // keep Stats().Events fresh for readers
		}
		return out, firstErr
	}

	// Stage 2 — resolve: claim each distinct hash of the tranche, and
	// register + probe the ones this tranche owns. No store locks held;
	// the band-sharded index is the only serialization.
	resolves := make(map[phash.Hash]*hashResolve, len(pend))
	var order []*hashResolve
	for _, pe := range pend {
		if _, ok := resolves[pe.ev.Hash]; ok {
			continue
		}
		hr := &hashResolve{h: pe.ev.Hash}
		hr.id, hr.owned, hr.wait = s.claimHash(pe.ev.Hash)
		resolves[pe.ev.Hash] = hr
		order = append(order, hr)
	}
	var owned []*hashResolve
	for _, hr := range order {
		if hr.owned {
			owned = append(owned, hr)
		}
	}
	s.probeOwned(owned)
	for _, hr := range owned {
		out.Probes += hr.stats.Probes
		out.Candidates += hr.stats.Candidates
	}
	s.metShardProbes.Add(out.Probes)

	// Stage 3 — wire: splice the owned hashes' ε-edges into the
	// adjacency and seed their counts, then release their pending
	// channels. This section never waits on other tranches, which is
	// what makes stage 4's cross-tranche waits deadlock-free.
	if len(owned) > 0 {
		t0 = time.Now()
		s.stateMu.Lock()
		s.metStateWait.Add(time.Since(t0).Nanoseconds())
		for _, hr := range owned {
			s.wireHashLocked(hr)
		}
		s.stateMu.Unlock()
		s.resolveMu.Lock()
		for _, hr := range owned {
			close(s.resolving[hr.h])
			delete(s.resolving, hr.h)
		}
		s.resolveMu.Unlock()
	}

	// Stage 4 — wait (outside all locks) for hashes owned by other
	// in-flight tranches to be wired, so commits below only ever add
	// members to fully wired hashes.
	for _, hr := range order {
		if hr.wait != nil {
			<-hr.wait
		}
	}

	// Stage 5 — commit: integrate the events into both views in
	// tranche order, firing promotions/unions and the oracle cadence
	// exactly as a serial append-by-append run would.
	t0 = time.Now()
	s.stateMu.Lock()
	s.metStateWait.Add(time.Since(t0).Nanoseconds())
	for _, pe := range pend {
		res := &out.Results[pe.ri]
		if err := s.commitLocked(pe.ev, resolves[pe.ev.Hash], res); err != nil {
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
	s.gen.Add(1)
	sn := s.buildSnapshotLocked()
	s.stateMu.Unlock()

	// Stage 6 — publish.
	s.publish(sn)
	return out, firstErr
}

// claimHash claims h in the index, registering it as in-flight when
// this caller wins the claim. Exactly one of three outcomes: owned
// (this tranche must register+probe+wire it), wait non-nil (another
// tranche is wiring it), or neither (already fully wired).
func (s *Store) claimHash(h phash.Hash) (id int32, owned bool, wait chan struct{}) {
	s.resolveMu.Lock()
	defer s.resolveMu.Unlock()
	id, isNew := s.idx.Claim(h)
	if isNew {
		s.resolving[h] = make(chan struct{})
		return id, true, nil
	}
	return id, false, s.resolving[h] // nil when already wired
}

// probeOwned registers and probes the tranche's owned hashes — in
// parallel when there is enough work and more than one CPU. Each hash
// is registered in every band before it is probed, which (with the
// index's per-band locks) guarantees that of any two concurrently
// inserted ε-close hashes, at least one probe discovers the other.
func (s *Store) probeOwned(owned []*hashResolve) {
	one := func(hr *hashResolve) {
		s.idx.Register(hr.id, hr.h)
		hr.nbrs, hr.stats = s.idx.ProbeNeighbours(hr.h, hr.id)
	}
	if len(owned) < 4 || runtime.GOMAXPROCS(0) == 1 {
		for _, hr := range owned {
			one(hr)
		}
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	workers := runtime.GOMAXPROCS(0)
	if workers > len(owned) {
		workers = len(owned)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(owned)) {
					return
				}
				one(owned[i])
			}
		}()
	}
	wg.Wait()
}

// growHashLocked extends the per-hash arrays to cover hash id. New
// slots are inert (no members, no adjacency) until wired/committed.
func (s *Store) growHashLocked(id int32) {
	for int32(len(s.adj)) <= id {
		s.adj = append(s.adj, nil)
		for v := range s.views {
			vs := &s.views[v]
			vs.members = append(vs.members, nil)
			vs.cnt = append(vs.cnt, 0)
			vs.core = append(vs.core, false)
			vs.parent = append(vs.parent, -1)
			vs.size = append(vs.size, 0)
			vs.minVi = append(vs.minVi, -1)
		}
	}
}

// wireHashLocked splices one owned hash's probe result into the
// adjacency. The edge set dedups against the opposite endpoint having
// wired the same edge already (both probes of a concurrently inserted
// ε-pair may see each other). Counts are then seeded from the full
// current adjacency: the hash has no members yet, so neighbours' counts
// are untouched, and any member committed to a neighbour later bumps
// this hash's count through the now-wired edge — the count invariant
// (cnt = view points within ε, own members included) holds at every
// stateMu release.
func (s *Store) wireHashLocked(hr *hashResolve) {
	s.growHashLocked(hr.id)
	for _, n := range hr.nbrs {
		s.growHashLocked(n)
		a, b := hr.id, n
		if a > b {
			a, b = b, a
		}
		key := uint64(uint32(a))<<32 | uint64(uint32(b))
		if _, dup := s.edgeSeen[key]; dup {
			continue
		}
		s.edgeSeen[key] = struct{}{}
		s.adj[hr.id] = append(s.adj[hr.id], n)
		s.adj[n] = append(s.adj[n], hr.id)
	}
	for v := range s.views {
		vs := &s.views[v]
		var c int32
		for _, n := range s.adj[hr.id] {
			c += int32(len(vs.members[n]))
		}
		vs.cnt[hr.id] = c
	}
}

// commitLocked integrates one logged event into the views. hr is the
// event's hash resolution (its hash is fully wired by now).
func (s *Store) commitLocked(ev Event, hr *hashResolve, res *AppendResult) error {
	pk := pointKey{ev.Hash, ev.E2LD}
	pid, known := s.pointIdx[pk]
	if !known {
		res.NewPoint = true
		if hr.owned && !hr.spent {
			// First point of a hash this tranche introduced: the event
			// that paid the index probe.
			hr.spent = true
			res.NewHash = true
			res.DistanceCalls = hr.stats.DistanceCalls
		}
		pid = int32(len(s.pointHash))
		s.pointHash = append(s.pointHash, hr.id)
		s.pointE2LD = append(s.pointE2LD, ev.E2LD)
		s.pointEvents = append(s.pointEvents, 0)
		s.pointIdx[pk] = pid
		for v := range s.views {
			s.views[v].idxOf = append(s.views[v].idxOf, -1)
		}
		s.addToView(&s.views[viewLive], pid)
	}
	s.pointEvents[pid]++
	if ev.Source == SourceCrawl && s.views[viewDiscovery].idxOf[pid] < 0 {
		s.addToView(&s.views[viewDiscovery], pid)
	}
	s.appended++
	if s.oracleEvery > 0 && s.appended%uint64(s.oracleEvery) == 0 {
		if err := s.runOracleLocked(); err != nil {
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
	vs.members[hid] = append(vs.members[hid], vi)
	vs.cnt[hid]++
	for _, n := range s.adj[hid] {
		vs.cnt[n]++
	}
	live := vs == &s.views[viewLive]
	s.maybePromote(vs, hid, live)
	for _, n := range s.adj[hid] {
		s.maybePromote(vs, n, live)
	}
	vs.dirty = true
}

// maybePromote turns hid into a core hash once it has members in the
// view and its ε-neighbourhood reaches MinPts, joining it to every
// already-core neighbour. A hash whose count crossed MinPts while it
// had no view members is promoted later, when its first member arrives.
func (s *Store) maybePromote(vs *viewState, hid int32, live bool) {
	if vs.core[hid] || len(vs.members[hid]) == 0 || int(vs.cnt[hid]) < s.params.MinPts {
		return
	}
	vs.core[hid] = true
	vs.parent[hid] = hid
	vs.size[hid] = 1
	vs.minVi[hid] = vs.members[hid][0]
	for _, n := range s.adj[hid] {
		if !vs.core[n] {
			continue
		}
		merged := vs.union(hid, n)
		if live {
			if merged {
				s.metMerges.Inc()
			} else {
				s.metSplitsAvoided.Inc()
			}
		}
	}
}

// labelsLocked derives the view's labels from the incremental state —
// zero distance calls. Cluster ids are assigned in order of each
// component's minimal core view index (exactly batch DBSCAN's seeding
// order); border points take the minimum id among adjacent core hashes
// (exactly the first cluster that would have expanded into them).
// A fresh slice is built whenever the view changed, so previously
// returned label slices (and the snapshots holding them) are immutable.
func (s *Store) labelsLocked(v int) ([]int, int) {
	vs := &s.views[v]
	if !vs.dirty {
		return vs.labels, vs.nclusters
	}
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
	vs.labels, vs.nclusters, vs.dirty = labels, len(comps), false
	return labels, len(comps)
}

// buildSnapshotLocked captures the current committed state. The label
// slices are the store's cached ones (rebuilt fresh whenever dirty, so
// never mutated after capture); the pts/pointHash slices are prefixes
// of append-only arrays whose captured cells never change.
func (s *Store) buildSnapshotLocked() *snapshot {
	dl, dn := s.labelsLocked(viewDiscovery)
	ll, ln := s.labelsLocked(viewLive)
	sn := &snapshot{
		gen:          s.gen.Load(),
		events:       s.log.len(),
		pointHash:    s.pointHash[:len(s.pointHash):len(s.pointHash)],
		discPts:      clipInt32(s.views[viewDiscovery].pts),
		livePts:      clipInt32(s.views[viewLive].pts),
		discLabels:   dl,
		liveLabels:   ll,
		discClusters: dn,
		liveClusters: ln,
		merges:       s.views[viewLive].merges,
		cycles:       s.views[viewLive].cycles,
	}
	sn.campaigns = s.projectCampaignsLocked(ll)
	return sn
}

func clipInt32(sl []int32) []int32 { return sl[:len(sl):len(sl)] }

// publish installs sn as the live snapshot unless a newer generation
// already is, and records how far behind the committed state the
// published snapshot runs (0 when no other tranche committed since sn
// was built — every tranche publishes, so the age is bounded by the
// number of concurrently in-flight tranches).
func (s *Store) publish(sn *snapshot) {
	for {
		cur := s.snap.Load()
		if cur != nil && cur.gen >= sn.gen {
			break
		}
		if s.snap.CompareAndSwap(cur, sn) {
			break
		}
	}
	s.metSnapAge.Set(int64(s.gen.Load() - s.snap.Load().gen))
}

// publishCurrent rebuilds and publishes a snapshot of the current
// state (used by mutations outside the batch path, e.g. campaign
// registration).
func (s *Store) publishCurrent() {
	s.stateMu.Lock()
	s.gen.Add(1)
	sn := s.buildSnapshotLocked()
	s.stateMu.Unlock()
	s.publish(sn)
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
// in crawl-point arrival order) and the cluster count, from the
// published snapshot — no lock taken. The slice is a copy.
func (s *Store) DiscoveryLabels() ([]int, int) {
	sn := s.snap.Load()
	return append([]int(nil), sn.discLabels...), sn.discClusters
}

// LiveLabels returns the all-sources labels (one per point, in point
// arrival order) and the cluster count, from the published snapshot —
// no lock taken. The slice is a copy.
func (s *Store) LiveLabels() ([]int, int) {
	sn := s.snap.Load()
	return append([]int(nil), sn.liveLabels...), sn.liveClusters
}

// DiscoveryIndex returns the discovery-view index of the (hash, e2LD)
// point, if it has one.
func (s *Store) DiscoveryIndex(h phash.Hash, e2ld string) (int, bool) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
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
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
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
func (s *Store) DiscoveryPoints() int { return len(s.snap.Load().discPts) }

// Points returns the number of distinct (hash, e2LD) pairs in the
// published snapshot.
func (s *Store) Points() int { return len(s.snap.Load().pointHash) }

// EventCount returns the number of logged (non-duplicate) events.
func (s *Store) EventCount() int { return s.log.len() }

// Events returns up to limit events with Seq > after, in sequence
// order — the pagination contract of GET /v1/observations. limit <= 0
// means no limit. Lock-free: reads the chunked log directly.
func (s *Store) Events(after uint64, limit int) []LoggedEvent {
	n := int64(s.log.n.Load())
	chunks := s.log.chunks.Load() // after n: covers every cell below n
	if after >= uint64(n) {
		return nil
	}
	end := n
	if limit > 0 && end-int64(after) > int64(limit) {
		end = int64(after) + int64(limit)
	}
	out := make([]LoggedEvent, 0, end-int64(after))
	for i := int64(after); i < end; i++ {
		out = append(out, *s.log.at(chunks, i))
	}
	return out
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
// snapshot plus the live atomics, without taking any lock.
func (s *Store) Stats() Stats {
	sn := s.snap.Load()
	return Stats{
		Events:          s.log.len(),
		Points:          len(sn.pointHash),
		DiscoveryPoints: len(sn.discPts),
		LivePoints:      len(sn.livePts),
		LiveClusters:    sn.liveClusters,
		Merges:          sn.merges,
		SplitsAvoided:   sn.cycles,
		OracleRuns:      s.oracleRuns.Load(),
		SnapshotGen:     sn.gen,
		Index:           s.idx.Stats(),
	}
}
