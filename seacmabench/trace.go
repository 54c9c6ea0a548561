package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	seacma "repro"
	"repro/internal/adscript"
	"repro/internal/btgraph"
	"repro/internal/campstore"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/phash"
	"repro/internal/screenshot"
	"repro/internal/serve"
	"repro/internal/worldgen"
)

// maxUnaccountedShare is the share of the traced wall time that may
// fall outside every layer span; the traced run fails beyond it, so no
// work hides in "other".
const maxUnaccountedShare = 0.05

// span is one timed call into a layer.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root
	Name   string  `json:"name"`
	Job    string  `json:"job"`
	Start  float64 `json:"start_ms"` // since the trace began
	End    float64 `json:"end_ms"`
}

// tracer records spans in memory; they are written out when the run
// ends.
type tracer struct {
	t0    time.Time
	job   string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ms() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e6 }

// start opens a span under parent (0 = root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: t.job, Start: t.ms()})
	return len(t.spans)
}

func (t *tracer) stop(id int) { t.spans[id-1].End = t.ms() }

// busy sums the durations of the spans with this name, in seconds.
func (t *tracer) busy(name string) float64 {
	s := 0.0
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	return s / 1e3
}

// wall returns a span's duration in seconds.
func (t *tracer) wall(id int) float64 { sp := t.spans[id-1]; return (sp.End - sp.Start) / 1e3 }

// unaccounted sums, over the root spans, each root's duration minus the
// time its child spans cover.
func (t *tracer) unaccounted() (gap, wall float64) {
	for _, root := range t.spans {
		if root.Parent != 0 {
			continue
		}
		d := root.End - root.Start
		wall += d
		for _, sp := range t.spans {
			if sp.Parent == root.ID {
				d -= sp.End - sp.Start
			}
		}
		gap += d
	}
	return gap / 1e3, wall / 1e3
}

// tracedJob runs the job by calling each layer's public functions in
// sequence, timing every call. It mirrors the pipeline's phased
// schedule, so the report must equal the streaming pipeline's. store
// receives the discovery observations, as the daemon's world store
// would.
func tracedJob(ctx context.Context, tr *tracer, spec serve.JobSpec, store *campstore.Store, m map[string]float64) ([]byte, error) {
	cfg := jobConfig(spec)
	capture := screenshot.NewCache(0, nil)
	scripts := adscript.NewProgramCache(0, nil)

	setup := tr.start("setup", 0)
	id := tr.start("worldgen", setup)
	w := worldgen.Build(cfg.World)
	tr.stop(id)
	seeds := seacma.SeedsFromSpecs(w)
	tr.stop(setup)
	m["worldgen.build_s"] = tr.wall(id)

	job := tr.start("job", 0)
	defer tr.stop(job)
	run := &core.RunResult{}

	id = tr.start("reverse", job)
	run.PublisherHosts, run.NetworksByHost = core.ReverseSeeds(w.Search, seeds)
	inst, res := core.GroupPublishers(run.NetworksByHost, seeds)
	var tasks []crawler.Task
	for _, g := range []core.PublisherGroup{inst, res} {
		for _, h := range g.Hosts {
			tasks = append(tasks, crawler.Task{Host: h, ClientIP: g.ClientIP})
		}
	}
	if cfg.MaxPublishers > 0 && len(tasks) > cfg.MaxPublishers {
		tasks = tasks[:cfg.MaxPublishers]
	}
	tr.stop(id)
	m["reverse.publishers"] = float64(len(run.PublisherHosts))

	id = tr.start("crawler", job)
	ccfg := cfg.Crawler
	ccfg.Capture, ccfg.Scripts = capture, scripts
	stream, total := crawler.New(w.Internet, w.Clock, ccfg).CrawlStream(ctx, tasks)
	run.Sessions = make([]*crawler.Session, total)
	var perSession samples
	last := time.Now()
	for ev := range stream {
		now := time.Now()
		perSession.add(now.Sub(last))
		last = now
		run.Sessions[ev.Index] = ev.Session
	}
	tr.stop(id)
	landings := 0
	for _, s := range run.Sessions {
		landings += len(s.Landings)
	}
	m["crawler.sessions"] = float64(len(perSession))
	m["crawler.session_p50_ms"] = perSession.median()
	if t, ok := perSession.tailOf(); ok {
		m["crawler.session_p99_ms"] = t.Value
	}
	m["crawler.landings"] = float64(landings)

	id = tr.start("btgraph", job)
	graphs, edges := 0, 0
	for _, s := range run.Sessions {
		if len(s.Landings) > 0 {
			graphs++
			edges += btgraph.FromEvents(s.Events).EdgeCount()
		}
	}
	tr.stop(id)
	m["btgraph.graphs"], m["btgraph.edges"] = float64(graphs), float64(edges)

	patterns := core.PatternSetFromSeeds(seeds)
	id = tr.start("attrib", job)
	run.Attributions = core.AttributeSessions(run.Sessions, patterns)
	tr.stop(id)
	m["attrib.attributions"] = float64(len(run.Attributions))

	params := cfg.Discovery
	params.Store = store
	id = tr.start("discovery", job)
	disc, err := core.Discover(run.Sessions, params)
	tr.stop(id)
	if err != nil {
		return nil, err
	}
	run.Discovery = disc
	m["discovery.observations"] = float64(len(disc.Observations))
	m["discovery.clusters"] = float64(len(disc.Clusters))
	m["discovery.campaigns"] = float64(len(disc.Campaigns()))
	m["discovery.distance_calls"] = float64(disc.DistanceCalls)

	if !cfg.SkipMilking {
		id = tr.start("milker.extract", job)
		cands := core.ExtractMilkingSources(run.Sessions, disc)
		tr.stop(id)
		mcfg := cfg.Milker
		mcfg.Campaigns, mcfg.Capture, mcfg.Scripts = disc.Store, capture, scripts
		mk := core.NewMilker(w.Internet, w.Clock, w.GSB, w.VT, mcfg)
		id = tr.start("milker.verify", job)
		run.Sources = mk.VerifySources(cands)
		tr.stop(id)
		if len(run.Sources) == 0 {
			mk.Close()
			return nil, fmt.Errorf("no milkable sources verified from %d candidates", len(cands))
		}
		id = tr.start("milker.track", job)
		run.Milking, err = mk.RunContext(ctx, run.Sources)
		tr.stop(id)
		mk.Close()
		if err != nil {
			return nil, err
		}
		m["milker.candidates"] = float64(len(cands))
		m["milker.sources"] = float64(len(run.Sources))
		m["milker.verify_yield"] = float64(len(run.Sources)) / float64(len(cands))
		m["milker.sessions"] = float64(run.Milking.Sessions)
		m["milker.domains"] = float64(len(run.Milking.Domains))
		m["milker.sessions_per_s"] = float64(run.Milking.Sessions) / tr.busy("milker.track")
	}

	id = tr.start("report", job)
	var buf bytes.Buffer
	err = core.BuildReport(run, patterns, w.GSB, w.Webcat, w.Clock.Now()).WriteJSON(&buf)
	tr.stop(id)
	if err != nil {
		return nil, err
	}
	m["report.bytes"] = float64(buf.Len())

	ch, cm, _ := capture.Stats()
	sh, sm, _ := scripts.Stats()
	m["capture.hits"], m["capture.misses"] = float64(ch), float64(cm)
	m["script.hits"], m["script.misses"] = float64(sh), float64(sm)
	m["capture.hit_ratio"] = ratio(ch, ch+cm)
	m["script.hit_ratio"] = ratio(sh, sh+sm)
	return buf.Bytes(), nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// replayIngest appends the ingest stream's batches into an in-process
// store, timing AppendBatch and the two live-state reads the daemon
// serves (LiveCampaigns, Events) in the same alternation as the load.
func replayIngest(tr *tracer, st *campstore.Store, plan [][]ingestEvent, m map[string]float64) error {
	root := tr.start("replay", 0)
	defer tr.stop(root)
	k := newSeqChecker(ingestBatchSize)
	var appends, reads, pages samples
	var calls int64
	dups, newPoints := 0, 0
	for i, batch := range plan {
		evs := make([]campstore.Event, len(batch))
		for j, ev := range batch {
			evs[j] = campstore.Event{Hash: ev.Hash, E2LD: ev.E2LD, Tick: ev.Tick, Source: campstore.SourceAPI}
		}
		id := tr.start("campstore.append", root)
		t0 := time.Now()
		br, err := st.AppendBatch(evs)
		appends.add(time.Since(t0))
		tr.stop(id)
		if err != nil {
			return err
		}
		got := make([]appendOutcome, len(br.Results))
		for j, r := range br.Results {
			got[j] = appendOutcome{Seq: r.Seq, Duplicate: r.Duplicate}
		}
		if err := k.check(i, batch, got); err != nil {
			return err
		}
		calls += br.DistanceCalls
		dups += br.Duplicates
		newPoints += br.NewPoints

		id = tr.start("campstore.read", root)
		t0 = time.Now()
		if i%2 == 0 {
			_ = st.LiveCampaigns()
			reads.add(time.Since(t0))
		} else {
			_ = st.Events(uint64(st.EventCount()/2), 100)
			pages.add(time.Since(t0))
		}
		tr.stop(id)
	}
	stats := st.Stats()
	m["campstore.append_p50_ms"] = appends.median()
	if v, err := appends.p99(); err == nil {
		m["campstore.append_p99_ms"] = v
	} else {
		return err
	}
	m["campstore.append_busy_s"] = tr.busy("campstore.append")
	m["campstore.distance_calls"] = float64(calls)
	m["campstore.new_points"] = float64(newPoints)
	m["campstore.duplicates"] = float64(dups)
	m["campstore.merges"] = float64(stats.Merges)
	m["campstore.points_end"] = float64(stats.Points)
	m["campstore.read_p50_ms"] = reads.median()
	m["campstore.page_p50_ms"] = pages.median()
	return nil
}

// runTrace is the traced run. It never reports end-to-end metrics: for
// crawl and milk it runs the job once untraced (for the tracing
// overhead) and once traced; for ingest it first drives the daemon as
// the untraced run does, then repeats the seeding job traced into an
// in-process store and replays the identical batches into it.
func runTrace(ctx context.Context, o options) (*outcome, error) {
	m := map[string]float64{}
	for _, d := range layerMetrics {
		m[d.Name] = 0
	}
	workers := runtime.GOMAXPROCS(0)
	// The traced run measures the first of the run's worlds.
	specs := jobSpecs(o.workload, o.seed, workers)
	spec := specs[0]
	ref, err := referenceDigest(ctx, spec)
	if err != nil {
		return nil, err
	}
	out := newOutcome(o, specs[:1])
	var plan [][]ingestEvent
	if o.workload == wIngest {
		_, r, err := ingestPhase(o, spec, ref, 1)
		if err != nil {
			return nil, err
		}
		if err := r.describe(out); err != nil {
			return nil, err
		}
		plan = r.plan
		m["serve.ingest_p50_ms"] = r.writes.lat.median()
		m["serve.read_p50_ms"] = r.reads.lat.median()
		if v, err := r.writes.lat.p99(); err == nil {
			m["serve.ingest_p99_ms"] = v
		}
		if v, err := r.reads.lat.p99(); err == nil {
			m["serve.read_p99_ms"] = v
		}
	}

	// The untraced job, on the same seed, for the tracing overhead.
	out.Attempted++
	plain, err := runJob(ctx, spec)
	if err != nil {
		return nil, err
	}
	if err := checkReport(plain.Report, ref); err != nil {
		out.fail("untraced job: %v", err)
	}
	m["job.alloc_mb"] = float64(plain.Alloc) / (1 << 20)

	tr := newTracer()
	tr.job = fmt.Sprintf("%s-seed%d", o.workload, o.seed)
	store := campstore.New(campstore.Config{})
	out.Attempted++
	rep, err := tracedJob(ctx, tr, spec, store, m)
	if err != nil {
		return nil, err
	}
	if err := checkReport(rep, ref); err != nil {
		out.fail("traced job: %v", err)
	}
	m["trace.overhead_s"] = tr.busy("job") - plain.Wall.Seconds()

	if plan != nil {
		live := store.LiveCampaigns()
		hashes := make([]phash.Hash, len(live))
		for i, cv := range live {
			hashes[i] = cv.RepHash
		}
		replay := planIngest(o.seed, hashes, len(plan), ingestBatchSize)
		if !samePlan(plan, replay) {
			out.fail("replay stream differs from the daemon's: live campaign hashes differ")
		}
		out.Attempted += len(replay)
		if err := replayIngest(tr, store, replay, m); err != nil {
			out.fail("replay: %v", err)
		}
		m["serve.ingest_overhead_p50_ms"] = m["serve.ingest_p50_ms"] - m["campstore.append_p50_ms"]
		m["serve.read_overhead_p50_ms"] = m["serve.read_p50_ms"] - (m["campstore.read_p50_ms"]+m["campstore.page_p50_ms"])/2
	} else {
		st := store.Stats()
		m["campstore.points_end"] = float64(st.Points)
		m["campstore.merges"] = float64(st.Merges)
		m["campstore.distance_calls"] = float64(st.Index.DistanceCalls)
	}

	for _, name := range []string{"reverse", "crawler", "btgraph", "attrib", "discovery", "report"} {
		m[name+".busy_s"] = tr.busy(name)
	}
	m["milker.extract_busy_s"] = tr.busy("milker.extract")
	m["milker.verify_busy_s"] = tr.busy("milker.verify")
	m["milker.track_busy_s"] = tr.busy("milker.track")
	gap, wall := tr.unaccounted()
	m["trace.unaccounted_s"] = gap
	if gap > maxUnaccountedShare*wall {
		out.fail("unaccounted time %.3fs exceeds %.0f%% of the traced wall %.3fs", gap, 100*maxUnaccountedShare, wall)
	}
	for name, v := range m {
		out.set(name, v)
	}
	out.Info["traced_wall_s"] = wall
	out.Info["unaccounted_limit_share"] = maxUnaccountedShare
	return out, writeTrace(o, tr, m)
}

func samePlan(a, b [][]ingestEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.Kind != y.Kind || x.Hash != y.Hash || x.E2LD != y.E2LD || !x.Tick.Equal(y.Tick) || x.Of != y.Of {
				return false
			}
		}
	}
	return true
}

// writeTrace writes the spans (JSON) and the per-layer table (text)
// under the output directory, and the table to stderr.
func writeTrace(o options, tr *tracer, m map[string]float64) error {
	dir := filepath.Join(o.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	raw, err := json.MarshalIndent(tr.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", raw, 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit")
	for _, n := range names {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", n, m[n], unitOf[n])
	}
	tw.Flush()
	os.Stderr.WriteString(b.String())
	return os.WriteFile(base+".layers.txt", []byte(b.String()), 0o644)
}
