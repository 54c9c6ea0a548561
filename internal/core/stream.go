package core

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/btgraph"
	"repro/internal/campstore"
	"repro/internal/cluster"
	"repro/internal/crawler"
	"repro/internal/obs"
	"repro/internal/phash"
	"repro/internal/urlx"
)

// ProgressEvent is one streaming-pipeline progress notification: a
// phase transition (Committed == 0) or a per-session commit tick during
// the crawl. Phase names match the obs span names — reverse, crawl,
// discover, attribute, milk — so a progress consumer (the seacma-serve
// job engine) can correlate events with the span log.
type ProgressEvent struct {
	Phase string
	// Committed/Total count session slots committed in task order out of
	// the run's total; both are zero on pure phase transitions.
	Committed int
	Total     int
}

// StreamOptions configure a streaming run.
type StreamOptions struct {
	// SkipMilking stops after discovery and attribution.
	SkipMilking bool
	// OnProgress, when non-nil, receives phase transitions and
	// per-session commit progress. It is called from the coordinator's
	// commit goroutine, never concurrently.
	OnProgress func(ProgressEvent)
}

// RunStream executes the full pipeline through the streaming
// coordinator: crawl sessions are consumed the moment their worker
// finishes — attributed, folded into the observation sequence and
// appended to the incremental campaign store — while later sessions are
// still crawling. Per-session results are committed in task order (the
// same buffered-commit pattern as the milking scheduler), so the final
// RunResult and report JSON are byte-identical to calling the stages
// one by one (Reverse, Crawl, Discover, Attribute, Milk) at any worker
// count.
//
// What overlaps and what cannot: discovery appends, attribution and
// backtracking-graph construction are pure functions of each session,
// so they run under the crawl. Milking-source *verification* probes the
// synthetic web, and a TDS probe mints rotation-epoch attack domains
// into the world's ground-truth recorder — probing mid-crawl (earlier
// virtual instants, or candidates a stage-by-stage run would never
// probe) would perturb the GSB timeline and the report. Verification
// therefore starts exactly at stream close, at the same virtual instant
// and over the same candidate list as the per-stage Milk, but reuses
// the graphs the stream already built, so extraction itself pays no
// FromEvents rebuilds.
func (p *Pipeline) RunStream(ctx context.Context, opts StreamOptions) (*RunResult, error) {
	emit := func(ev ProgressEvent) {
		if opts.OnProgress != nil {
			opts.OnProgress(ev)
		}
	}
	// Reject unusable DBSCAN parameters before any crawling: the
	// incremental store would otherwise cluster with them silently.
	if err := p.discoveryParams().Cluster.Validate(); err != nil {
		return nil, Errorf("clustering: %v", err)
	}
	out := &RunResult{}
	emit(ProgressEvent{Phase: "reverse"})
	out.PublisherHosts, out.NetworksByHost = p.Reverse()
	if len(out.PublisherHosts) == 0 {
		return nil, Errorf("seed reversal found no publishers")
	}
	emit(ProgressEvent{Phase: "crawl"})
	sc := p.newStreamCoordinator(emit)
	if err := sc.consume(ctx, out.NetworksByHost); err != nil {
		return nil, err
	}
	out.Sessions = sc.sessions
	emit(ProgressEvent{Phase: "discover"})
	disc, err := sc.finishDiscovery()
	if err != nil {
		return nil, err
	}
	out.Discovery = disc
	emit(ProgressEvent{Phase: "attribute"})
	// The attribution work itself ran under the crawl (the stage tracker
	// accounts for the overlap); the span still appears at its canonical
	// position so span consumers see every Figure-2 stage.
	attrSpan := p.Cfg.Obs.StartSpan("attribute")
	out.Attributions = sc.attrs
	attrSpan.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !opts.SkipMilking {
		emit(ProgressEvent{Phase: "milk"})
		sources, milking, err := p.milkContext(ctx, out.Sessions, disc, sc.graphs)
		if err != nil {
			return nil, err
		}
		out.Sources = sources
		out.Milking = milking
	}
	return out, nil
}

// sessionWork is one session's stream-side analysis, computed out of
// order by the analysis pool and committed in task order.
type sessionWork struct {
	idx   int
	s     *crawler.Session
	graph *btgraph.Graph
	attrs []Attribution
}

// streamCoordinator owns the in-flight state of one streaming run. All
// commit-side fields are written only by the commit loop (one
// goroutine), in task order.
type streamCoordinator struct {
	p        *Pipeline
	emit     func(ProgressEvent)
	tracker  *obs.StageTracker
	patterns *urlx.PatternSet

	// Discovery state, mirroring Pipeline.Discover's defaults.
	params DiscoveryParams
	store  *campstore.Store // nil: declined up front
	// streamOK stays true while every per-session append succeeded; a
	// failed append flips it and finishDiscovery falls back to batch
	// clustering (Discover's behaviour on AppendBatch error).
	streamOK bool
	collect  *obsCollector
	batch    campstore.BatchResult // summed over per-session appends

	total    int
	sessions []*crawler.Session
	graphs   map[int]*btgraph.Graph
	attrs    []Attribution
}

func (p *Pipeline) newStreamCoordinator(emit func(ProgressEvent)) *streamCoordinator {
	params := p.discoveryParams()
	sc := &streamCoordinator{
		p:        p,
		emit:     emit,
		tracker:  p.Cfg.Obs.StageTracker(),
		patterns: PatternSetFromSeeds(p.Cfg.Seeds),
		params:   params,
		collect:  newObsCollector(),
		graphs:   map[int]*btgraph.Graph{},
	}
	st := params.Store
	if st == nil {
		st = campstore.New(campstore.Config{Params: params.Cluster, Obs: params.Obs})
	}
	// Mirror Discover's up-front decline: a shared store clustering
	// under different parameters takes no appends, and the run
	// batch-clusters instead.
	if st.Params() == params.Cluster {
		sc.store = st
		sc.streamOK = true
	}
	return sc
}

// consume drives the session stream to completion: an analysis pool
// builds each session's backtracking graph and attributions out of
// order, and the commit loop folds results in task order — sessions
// slice, observation sequence, store appends, attribution concat,
// per-session progress. Under cancellation the crawler feeds a
// contiguous prefix of slots, so the commit loop still drains fully and
// every committed session is complete — there are no torn commits.
func (sc *streamCoordinator) consume(ctx context.Context, byHost map[string][]string) error {
	crawlSpan := sc.p.Cfg.Obs.StartSpan("crawl")
	defer crawlSpan.End()
	sc.tracker.Enter("crawl")
	defer sc.tracker.Exit("crawl")

	farm, tasks := sc.p.crawlFarm(byHost)
	stream, total := farm.CrawlStream(ctx, tasks)
	sc.total = total
	sc.sessions = make([]*crawler.Session, total)

	workers := runtime.GOMAXPROCS(0)
	if workers > total && total > 0 {
		workers = total
	}
	if workers < 1 {
		workers = 1
	}
	analyzed := make(chan sessionWork, total)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range stream {
				analyzed <- sc.analyze(ev)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(analyzed)
	}()

	pending := make(map[int]sessionWork)
	next := 0
	for w := range analyzed {
		pending[w.idx] = w
		for {
			cw, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			sc.commitSession(cw)
			next++
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

// analyze runs the per-session stream-side work: backtracking graph and
// attribution. Pure per-session computation — safe out of order.
func (sc *streamCoordinator) analyze(ev crawler.SessionEvent) sessionWork {
	w := sessionWork{idx: ev.Index, s: ev.Session}
	if ev.Session == nil || len(ev.Session.Landings) == 0 {
		return w
	}
	sc.tracker.Enter("attribute")
	w.graph = btgraph.FromEvents(ev.Session.Events)
	w.attrs = attributeSession(ev.Index, ev.Session, w.graph, sc.patterns)
	sc.tracker.Exit("attribute")
	return w
}

// commitSession folds one session in, in task order.
func (sc *streamCoordinator) commitSession(w sessionWork) {
	sc.sessions[w.idx] = w.s
	if w.graph != nil {
		sc.graphs[w.idx] = w.graph
	}
	sc.attrs = append(sc.attrs, w.attrs...)
	sc.tracker.Enter("discover")
	events := sc.collect.addSession(w.idx, w.s)
	if sc.store != nil && sc.streamOK && len(events) > 0 {
		// Committing per-session event batches in task order reproduces
		// exactly the single batch Discover appends: the store
		// log, labels and snapshots end up identical.
		br, err := sc.store.AppendBatch(events)
		if err != nil {
			sc.streamOK = false
		} else {
			sc.batch.DistanceCalls += br.DistanceCalls
			sc.batch.Probes += br.Probes
			sc.batch.Candidates += br.Candidates
		}
	}
	sc.tracker.Exit("discover")
	sc.emit(ProgressEvent{Phase: "crawl", Committed: w.idx + 1, Total: sc.total})
}

// finishDiscovery runs the θc triage tail once the stream is closed.
// The incremental labels (when the stream appends all succeeded and the
// store's crawl view matches this run's observation sequence) feed the
// same assembleDiscovery tail as Discover; otherwise the run
// batch-clusters the accumulated observations, mirroring Discover's
// fallback exactly.
func (sc *streamCoordinator) finishDiscovery() (*DiscoveryResult, error) {
	defer sc.p.Cfg.Obs.StartSpan("discover").End()
	sc.tracker.Enter("discover")
	defer sc.tracker.Exit("discover")

	obs := sc.collect.obs
	params := sc.params
	store := sc.store
	var res cluster.Result
	derived := false
	if store != nil && sc.streamOK {
		if store.DiscoveryMatches(len(obs), func(i int) (phash.Hash, string) {
			return obs[i].Hash, obs[i].E2LD
		}) {
			labels, n := store.DiscoveryLabels()
			if len(labels) == len(obs) {
				params.Obs.Counter("discovery_index_probes_total").Add(sc.batch.Probes)
				params.Obs.Counter("discovery_index_candidates_total").Add(sc.batch.Candidates)
				res = cluster.Result{Labels: labels, NumClusters: n, DistanceCalls: sc.batch.DistanceCalls}
				derived = true
			}
		}
	}
	if !derived {
		store = nil
		if params.Store != nil {
			params.Obs.Counter("discovery_incremental_fallback_total").Inc()
		}
		r, err := clusterBatch(obs, params)
		if err != nil {
			return nil, err
		}
		res = r
	}
	return assembleDiscovery(sc.sessions, obs, res, store, params)
}
