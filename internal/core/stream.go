package core

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/btgraph"
	"repro/internal/crawler"
	"repro/internal/obs"
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
	// OnSession, when non-nil, receives every crawl session as it
	// commits, in task order, with its instrumentation log (Events)
	// still attached; the commit drops that log as soon as OnSession
	// returns. total is the crawl's session count. It is called from the
	// commit goroutine, never concurrently. The sink may keep s.Events.
	OnSession func(idx, total int, s *crawler.Session)
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
// and over the same candidate list as the per-stage Milk.
//
// The stream keeps summaries, not logs. Each session's backtracking
// graph lives only while the analysis pool attributes its landings and
// lists each hashed landing's milking candidates (the first off-domain
// URLs upstream of it); commit keeps those lists and drops the
// session's Events, so RunResult.Sessions carries no instrumentation
// logs. A caller that needs the raw logs takes them from
// StreamOptions.OnSession.
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
	// Likewise a milking schedule the tracking loop cannot run fails
	// here, not after the whole crawl.
	if !opts.SkipMilking {
		if err := p.Cfg.Milker.validate(); err != nil {
			return nil, Errorf("milker: %v", err)
		}
	}
	out := &RunResult{}
	emit(ProgressEvent{Phase: "reverse"})
	out.PublisherHosts, out.NetworksByHost = p.Reverse()
	if len(out.PublisherHosts) == 0 {
		return nil, Errorf("seed reversal found no publishers")
	}
	emit(ProgressEvent{Phase: "crawl"})
	sc := p.newStreamCoordinator(emit, opts.OnSession)
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
		cands := extractMilkingSources(out.Sessions, disc, sc.upstreamOf)
		sources, milking, err := p.milkContext(ctx, disc, cands)
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
	attrs []Attribution
	// upstream holds, per landing, the milking candidates of a hashed
	// landing (nil for unhashed landings and where the graph cannot
	// place the landing URL).
	upstream [][]string
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
	params  DiscoveryParams
	run     *storeRun
	collect *obsCollector

	onSession func(idx, total int, s *crawler.Session)

	total    int
	sessions []*crawler.Session
	upstream [][][]string // per session, per landing: milking candidates
	attrs    []Attribution
}

func (p *Pipeline) newStreamCoordinator(emit func(ProgressEvent), onSession func(idx, total int, s *crawler.Session)) *streamCoordinator {
	params := p.discoveryParams()
	return &streamCoordinator{
		p:        p,
		emit:     emit,
		tracker:  p.Cfg.Obs.StageTracker(),
		patterns: PatternSetFromSeeds(p.Cfg.Seeds),
		params:   params,
		run:      newStoreRun(params),
		collect:  newObsCollector(),

		onSession: onSession,
	}
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
	sc.upstream = make([][][]string, total)

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

// analyze runs the per-session stream-side work: it builds the
// backtracking graph, attributes the landings and lists each hashed
// landing's milking candidates (only hashed landings become
// observations, so only they can seed a milking source). Pure
// per-session computation — safe out of order. The graph is dropped on
// return.
func (sc *streamCoordinator) analyze(ev crawler.SessionEvent) sessionWork {
	s := ev.Session
	w := sessionWork{idx: ev.Index, s: s}
	if s == nil || len(s.Landings) == 0 {
		return w
	}
	sc.tracker.Enter("attribute")
	g := btgraph.FromEvents(s.Events)
	w.attrs = attributeSession(ev.Index, s, g, sc.patterns)
	w.upstream = make([][]string, len(s.Landings))
	for li, l := range s.Landings {
		if l.Hashed {
			w.upstream[li], _ = g.MilkingCandidates(l.URL.String())
		}
	}
	sc.tracker.Exit("attribute")
	return w
}

// upstreamOf is the stream's milking-candidate table as
// extractMilkingSources reads it. Observations refer only to hashed
// landings, whose sessions always have a row.
func (sc *streamCoordinator) upstreamOf(si, li int) []string {
	return sc.upstream[si][li]
}

// commitSession folds one session in, in task order, hands it to the
// session sink and drops its instrumentation log.
func (sc *streamCoordinator) commitSession(w sessionWork) {
	sc.sessions[w.idx] = w.s
	sc.upstream[w.idx] = w.upstream
	sc.attrs = append(sc.attrs, w.attrs...)
	sc.tracker.Enter("discover")
	events := sc.collect.addSession(w.idx, w.s)
	// Committing per-session event batches in task order reproduces
	// exactly the single batch Discover appends: the store log, labels
	// and snapshots end up identical.
	sc.run.append(events)
	sc.tracker.Exit("discover")
	sc.emit(ProgressEvent{Phase: "crawl", Committed: w.idx + 1, Total: sc.total})
	if w.s == nil {
		return
	}
	if sc.onSession != nil {
		sc.onSession(w.idx, sc.total, w.s)
	}
	w.s.Events = nil
}

// finishDiscovery runs the θc triage tail once the stream is closed.
// Labels come from the same storeRun.labels as Discover's, fallback
// included, and feed the same assembleDiscovery tail.
func (sc *streamCoordinator) finishDiscovery() (*DiscoveryResult, error) {
	defer sc.p.Cfg.Obs.StartSpan("discover").End()
	sc.tracker.Enter("discover")
	defer sc.tracker.Exit("discover")

	obs := sc.collect.obs
	res, store, err := sc.run.labels(obs, sc.params)
	if err != nil {
		return nil, err
	}
	return assembleDiscovery(sc.sessions, obs, res, store, sc.params)
}
