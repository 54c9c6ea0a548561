package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adscript"
	"repro/internal/browser"
	"repro/internal/btgraph"
	"repro/internal/campstore"
	"repro/internal/crawler"
	"repro/internal/devtools"
	"repro/internal/gsb"
	"repro/internal/obs"
	"repro/internal/phash"
	"repro/internal/phonebl"
	"repro/internal/screenshot"
	"repro/internal/urlx"
	"repro/internal/vclock"
	"repro/internal/vtsim"
	"repro/internal/webtx"
)

// MilkSource is one (upstream URL, user agent) milking pair — the
// paper's 505 milking sources (Section 4.2).
type MilkSource struct {
	URL      string
	UA       webtx.UserAgent
	ClientIP webtx.IPClass
	// CampaignID indexes the discovered campaign the source tracks.
	CampaignID int
	// Category is the campaign's triaged category.
	Category Category
	// RepHash is the campaign's representative screenshot hash, used to
	// verify that milked pages still belong to the campaign.
	RepHash phash.Hash
}

// ExtractMilkingSources walks every SE cluster's backtracking graphs and
// collects candidate (upstream URL, UA) pairs (Section 3.5): the first
// off-domain URLs upstream of each attack page.
func ExtractMilkingSources(sessions []*crawler.Session, disc *DiscoveryResult) []MilkSource {
	return extractMilkingSources(sessions, disc, nil)
}

// extractMilkingSources is ExtractMilkingSources with an optional
// prebuilt backtracking-graph cache keyed by session index. The
// streaming coordinator passes the graphs it already built for
// attribution, so extraction pays no FromEvents rebuilds; missing
// entries are built (and memoized) on demand.
func extractMilkingSources(sessions []*crawler.Session, disc *DiscoveryResult, graphs map[int]*btgraph.Graph) []MilkSource {
	if graphs == nil {
		graphs = map[int]*btgraph.Graph{}
	}
	graphFor := func(si int) *btgraph.Graph {
		if g, ok := graphs[si]; ok {
			return g
		}
		g := btgraph.FromEvents(sessions[si].Events)
		graphs[si] = g
		return g
	}
	seen := map[string]bool{}
	var out []MilkSource
	for _, c := range disc.Campaigns() {
		for _, m := range c.Members {
			obs := disc.Observations[m]
			for _, ref := range obs.Refs {
				s := sessions[ref.Session]
				l := s.Landings[ref.Landing]
				g := graphFor(ref.Session)
				cands, err := g.MilkingCandidates(l.URL.String())
				if err != nil {
					continue
				}
				for _, cand := range cands {
					key := cand + "|" + s.UserAgent.Name
					if seen[key] {
						continue
					}
					seen[key] = true
					out = append(out, MilkSource{
						URL:        cand,
						UA:         s.UserAgent,
						ClientIP:   s.ClientIP,
						CampaignID: c.ID,
						Category:   c.Category,
						RepHash:    c.Rep,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].URL != out[j].URL {
			return out[i].URL < out[j].URL
		}
		return out[i].UA.Name < out[j].UA.Name
	})
	return out
}

// MilkerConfig tunes the tracking experiment (Sections 3.5 and 4.2).
type MilkerConfig struct {
	// MilkInterval is the per-source revisit period (paper: 15 minutes).
	MilkInterval time.Duration
	// GSBInterval is the blacklist polling period (paper: 30 minutes).
	GSBInterval time.Duration
	// Duration is the milking horizon (paper: 14 days).
	Duration time.Duration
	// GSBExtra extends blacklist polling past the milking horizon
	// (paper: 12 more days).
	GSBExtra time.Duration
	// FinalLookupAfter schedules the last blacklist sweep (paper: 2
	// months after milking ended).
	FinalLookupAfter time.Duration
	// VerifyBits is the maximum dhash distance for a milked page to count
	// as the same campaign (the clustering eps expressed in bits).
	VerifyBits int
	// ViewportScale reduces screenshot resolution.
	ViewportScale int
	// MaxSources bounds the number of sources (0 = no bound).
	MaxSources int
	// Workers is the number of concurrent milking sessions per virtual
	// tick (default 8). Sessions due at the same virtual instant fan out
	// across the pool for the order-independent half of the work
	// (navigation, rendering, hashing) and are committed serially in
	// source order, so every result is byte-identical for any value.
	Workers int
	// Obs receives milking metrics (milk requests, new domains, GSB
	// polls, VT submissions — totals plus per-virtual-hour series).
	// Nil = no-op.
	Obs *obs.Registry
	// Capture is the shared content-addressed capture cache consulted by
	// probe screenshots. Milking revisits the same sources every
	// MilkInterval while noise seeds rotate hourly, so most probe
	// captures are repeats; verify hashes are byte-identical with or
	// without the cache. Nil disables memoization.
	Capture *screenshot.Cache
	// Scripts is the shared compile-once program cache: milking runs the
	// same campaign scripts hundreds of thousands of times, so parsing
	// each source once dominates. API-call traces are byte-identical with
	// or without it. Nil parses per script run.
	Scripts *adscript.ProgramCache
	// Campaigns, when non-nil, receives every verified milked sighting
	// as an incremental observation event (hash, e2LD, virtual tick,
	// source "milk"). Events are appended by the scheduler in commit
	// order, so the event log's sequence numbers are
	// deterministic; the store dedups on the full tuple, so repeat runs
	// over a shared store append nothing new. Milking results are
	// unaffected by the store.
	Campaigns *campstore.Store
}

// PaperMilkerConfig is the published setup.
func PaperMilkerConfig() MilkerConfig {
	return MilkerConfig{
		MilkInterval:     15 * time.Minute,
		GSBInterval:      30 * time.Minute,
		Duration:         14 * 24 * time.Hour,
		GSBExtra:         12 * 24 * time.Hour,
		FinalLookupAfter: 60 * 24 * time.Hour,
		VerifyBits:       12,
		ViewportScale:    4,
		Workers:          8,
	}
}

func (c *MilkerConfig) fillDefaults() {
	p := PaperMilkerConfig()
	if c.MilkInterval == 0 {
		c.MilkInterval = p.MilkInterval
	}
	if c.GSBInterval == 0 {
		c.GSBInterval = p.GSBInterval
	}
	if c.Duration == 0 {
		c.Duration = p.Duration
	}
	if c.GSBExtra == 0 {
		c.GSBExtra = p.GSBExtra
	}
	if c.FinalLookupAfter == 0 {
		c.FinalLookupAfter = p.FinalLookupAfter
	}
	if c.VerifyBits == 0 {
		c.VerifyBits = p.VerifyBits
	}
	if c.ViewportScale == 0 {
		c.ViewportScale = p.ViewportScale
	}
	if c.Workers == 0 {
		c.Workers = p.Workers
	}
	// More probe workers than CPUs is pure oversubscription: probes are
	// compute-bound (render + hash), so extra workers only add scheduler
	// churn — BENCH_pipeline.json measured W4 8% slower than W1 on a
	// 1-vCPU host. Reports are byte-identical at any worker count, so
	// capping is free.
	if max := runtime.GOMAXPROCS(0); c.Workers > max {
		c.Workers = max
	}
}

// MilkedDomain is one never-before-seen attack domain harvested by
// milking.
type MilkedDomain struct {
	Host       string
	Category   Category
	CampaignID int
	FirstSeen  time.Time
	// GSBInit reports whether the domain was already blacklisted when
	// milking first reached it.
	GSBInit bool
	// GSBListedAt is when polling first saw the domain listed (zero if
	// never during polling).
	GSBListedAt time.Time
	// GSBFinal reports the final-lookup verdict.
	GSBFinal bool
}

// MilkedFile is one binary collected during milking.
type MilkedFile struct {
	SHA256     string
	Category   Category
	CampaignID int
	Known      bool // previously known to the scan service
	Initial    vtsim.Report
	Final      vtsim.Report
}

// MilkingResult aggregates a tracking run.
type MilkingResult struct {
	Sources       int
	Sessions      int
	VerifiedMatch int // sessions whose screenshot matched the campaign
	Domains       []MilkedDomain
	Files         []MilkedFile
	// Phones is the scam-phone-number blacklist harvested in real time
	// from tech-support landing pages (Section 4.3's defensive output).
	Phones *phonebl.Blacklist
	// Start/End bound the milking window.
	Start, End time.Time
}

// GSBLags returns the birth→listing lags observed by polling.
func (r *MilkingResult) GSBLags() []time.Duration {
	var out []time.Duration
	for _, d := range r.Domains {
		if !d.GSBListedAt.IsZero() {
			out = append(out, d.GSBListedAt.Sub(d.FirstSeen))
		}
	}
	return out
}

// MeanGSBLag returns the mean polling-observed lag (0 when none).
func (r *MilkingResult) MeanGSBLag() time.Duration {
	lags := r.GSBLags()
	if len(lags) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range lags {
		sum += l
	}
	return sum / time.Duration(len(lags))
}

// Milker runs the tracking experiment.
type Milker struct {
	internet *webtx.Internet
	clock    *vclock.Clock
	gsb      *gsb.Blacklist
	vt       *vtsim.Service
	cfg      MilkerConfig
	met      milkMetrics
	// start anchors the per-virtual-hour metric series; set by Run.
	start time.Time

	// The probe worker pool is persistent: started lazily on the first
	// multi-worker fan-out and fed over jobs until Close. Spawning
	// goroutines per batch was pure churn — a 14-day milking run issues
	// ~1300 batches, and on small batches the spawn cost outweighed the
	// work, making W8 slower than W1.
	poolOnce   sync.Once
	closeOnce  sync.Once
	jobs       chan milkJob
	workerCtrs []*obs.Counter // milker_sessions_total{worker=N}

	// Client pool: probe sessions reset-and-reuse devtools clients (and
	// their browsers, tabs, interpreters, and host environments) instead
	// of constructing them per probe — the probe path's dominant
	// allocation source. Guarded by clientMu because probes on different
	// workers acquire and release concurrently.
	clientMu sync.Mutex
	clients  []*devtools.Client

	pollBuf []bool // reusable verdict buffer for poll fan-out
}

// milkJob is one work batch broadcast to the persistent pool: every
// participating worker pulls indices from the shared counter and runs
// the batch closure, which writes results positionally, so batch
// outcome never depends on scheduling. Broadcasting the batch (one
// channel send per worker) instead of enqueueing per item keeps each
// worker running items back to back — per-item handoffs interleave
// every worker's in-flight state, which on few-core hosts costs more in
// cache misses and GC scanning than the work itself.
type milkJob struct {
	n    int
	run  func(k int)
	ctrs []*obs.Counter // per-worker progress counters; nil = uncounted
	next *atomic.Int64
	wg   *sync.WaitGroup
}

// milkMetrics are the milker's pre-resolved handles; all nil when
// cfg.Obs is nil.
type milkMetrics struct {
	milks      *obs.Counter // milker_milks_total: milk requests issued
	newDomains *obs.Counter // milker_new_domains_total
	gsbPolls   *obs.Counter // milker_gsb_polls_total: blacklist lookups
	vtSubmits  *obs.Counter // milker_vt_submissions_total
	verified   *obs.Counter // milker_verified_match_total
}

// NewMilker builds a Milker.
func NewMilker(internet *webtx.Internet, clock *vclock.Clock, bl *gsb.Blacklist, vt *vtsim.Service, cfg MilkerConfig) *Milker {
	cfg.fillDefaults()
	m := &Milker{internet: internet, clock: clock, gsb: bl, vt: vt, cfg: cfg, met: milkMetrics{
		milks:      cfg.Obs.Counter("milker_milks_total"),
		newDomains: cfg.Obs.Counter("milker_new_domains_total"),
		gsbPolls:   cfg.Obs.Counter("milker_gsb_polls_total"),
		vtSubmits:  cfg.Obs.Counter("milker_vt_submissions_total"),
		verified:   cfg.Obs.Counter("milker_verified_match_total"),
	}}
	m.workerCtrs = make([]*obs.Counter, m.cfg.Workers)
	for w := range m.workerCtrs {
		m.workerCtrs[w] = cfg.Obs.Counter("milker_sessions_total", "worker="+strconv.Itoa(w))
	}
	return m
}

// hourly returns the per-virtual-hour series counter for name: the same
// metric labeled with the whole virtual hours elapsed since milking
// began, so a 14-day run exports its throughput evolution. Returns nil
// (no-op) when observability is off.
func (m *Milker) hourly(name string, now time.Time) *obs.Counter {
	if m.cfg.Obs == nil {
		return nil
	}
	vh := int(now.Sub(m.start) / time.Hour)
	if vh < 0 {
		vh = 0
	}
	return m.cfg.Obs.Counter(name, fmt.Sprintf("vhour=%03d", vh))
}

// VerifySources runs the pilot check of Section 4.2: each candidate is
// visited once — across the worker pool — and kept only if it leads to
// a page whose screenshot matches its campaign. Candidates are filtered
// in input order with the MaxSources cap applied to the ordered result,
// so the kept set is independent of the worker count.
func (m *Milker) VerifySources(cands []MilkSource) []MilkSource {
	m.cfg.Obs.Counter("milker_verify_visits_total").Add(int64(len(cands)))
	probes := make([]milkProbe, len(cands))
	m.runParallel(len(cands), m.workerCtrs, func(k int) {
		probes[k] = m.probe(cands[k], nil, time.Time{})
	})
	var out []MilkSource
	for i, p := range probes {
		if p.client != nil {
			m.releaseClient(p.client)
		}
		if m.cfg.MaxSources > 0 && len(out) >= m.cfg.MaxSources {
			continue // cap reached; keep draining retained clients
		}
		if p.ok && p.hashed && phash.Distance(p.hash, cands[i].RepHash) <= m.cfg.VerifyBits {
			out = append(out, cands[i])
		}
	}
	return out
}

// milkProbe is the parallel half of one milking session: navigation,
// rendering and hashing — work whose outcome depends only on the source
// and the probe's pinned virtual instant, never on sibling sessions.
type milkProbe struct {
	ok     bool // navigation landed on an off-source OK page
	host   string
	client *devtools.Client
	tab    *browser.Tab
	hash   phash.Hash
	hashed bool // screenshot hash computed (host unseen at probe time)
}

// clientConfig is the automation profile for one source's sessions.
func (m *Milker) clientConfig(src MilkSource) devtools.ClientConfig {
	return devtools.ClientConfig{
		UserAgent: src.UA, ClientIP: src.ClientIP,
		StealthPatch: true, DialogBypass: true,
		DeviceEmulation: src.UA.Mobile,
		ViewportScale:   m.cfg.ViewportScale,
		Capture:         m.cfg.Capture,
		Scripts:         m.cfg.Scripts,
	}
}

// acquireClient hands out a pooled client re-armed for cfg, building a
// fresh one only when the pool is dry.
func (m *Milker) acquireClient(cfg devtools.ClientConfig) *devtools.Client {
	m.clientMu.Lock()
	var c *devtools.Client
	if n := len(m.clients); n > 0 {
		c = m.clients[n-1]
		m.clients[n-1] = nil
		m.clients = m.clients[:n-1]
	}
	m.clientMu.Unlock()
	if c == nil {
		return devtools.NewClient(m.internet, m.clock, cfg)
	}
	c.Reset(cfg)
	return c
}

func (m *Milker) releaseClient(c *devtools.Client) {
	m.clientMu.Lock()
	m.clients = append(m.clients, c)
	m.clientMu.Unlock()
}

// probe loads a milking source at the pinned virtual instant (zero =
// live clock). seen (nil to always hash) skips screenshot work for
// hosts already discovered — the dominant case in steady-state milking.
// The session client comes from the pool; it is released here unless
// the probe hit a verified-fresh page, in which case it rides along in
// p.client/p.tab for the commit phase (phone harvest, download clicks),
// whose owner releases it.
func (m *Milker) probe(src MilkSource, seen map[string]bool, pinAt time.Time) milkProbe {
	var p milkProbe
	client := m.acquireClient(m.clientConfig(src))
	client.PinTime(pinAt)
	defer func() {
		if p.client == nil {
			m.releaseClient(client)
		}
	}()
	tab, err := client.Navigate(src.URL)
	if err != nil || tab.Status != webtx.StatusOK || tab.Doc == nil {
		return p
	}
	srcURL, err := urlx.Parse(src.URL)
	if err != nil || tab.URL.Host == srcURL.Host {
		return p
	}
	p.ok, p.host = true, tab.URL.Host
	if !seen[p.host] {
		if h, err := client.Browser().ScreenshotHash(tab); err == nil {
			p.hash, p.hashed = h, true
		}
	}
	if p.hashed && phash.Distance(p.hash, src.RepHash) <= m.cfg.VerifyBits {
		p.client, p.tab = client, tab
	}
	return p
}

// runParallel fans run(0..n-1) out across the worker pool, or runs
// serially for one worker / one item. ctrs, when non-nil, receives one
// increment per item on the executing worker's counter (the serial path
// counts as worker 0). Batch closures must perform only
// order-independent work: which worker handles which item can never
// influence a result.
func (m *Milker) runParallel(n int, ctrs []*obs.Counter, run func(k int)) {
	if n == 0 {
		return
	}
	if m.cfg.Workers <= 1 || n <= 1 {
		for k := 0; k < n; k++ {
			run(k)
			if ctrs != nil {
				ctrs[0].Inc()
			}
		}
		return
	}
	m.startPool()
	workers := m.cfg.Workers
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	job := milkJob{n: n, run: run, ctrs: ctrs, next: &next, wg: &wg}
	for w := 0; w < workers; w++ {
		m.jobs <- job
	}
	wg.Wait()
}

// startPool launches the persistent workers on first use.
func (m *Milker) startPool() {
	m.poolOnce.Do(func() {
		workers := m.cfg.Workers
		m.jobs = make(chan milkJob, workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				for j := range m.jobs {
					for {
						k := int(j.next.Add(1)) - 1
						if k >= j.n {
							break
						}
						j.run(k)
						if j.ctrs != nil {
							j.ctrs[w].Inc()
						}
					}
					j.wg.Done()
				}
			}(w)
		}
	})
}

// Close shuts the probe worker pool down. Idempotent; safe on a Milker
// whose pool never started. Further fan-outs after Close would panic,
// so call it only once milking is finished.
func (m *Milker) Close() {
	m.closeOnce.Do(func() {
		if m.jobs != nil {
			close(m.jobs)
		}
	})
}

// commit is the serial half of one milking session. The scheduler
// invokes it in (tick, source) order, which fixes
// first-discovery of seen hosts, GSB lag bookkeeping, download
// sequencing and result-slice order — everything the probe phase
// deliberately leaves untouched. A client retained by the probe is
// returned to the pool here on every path.
func (m *Milker) commit(src MilkSource, p milkProbe, now time.Time, res *MilkingResult, seen map[string]bool, unlisted *[]int, milkEvents *[]campstore.Event) {
	if p.client != nil {
		defer m.releaseClient(p.client)
	}
	res.Sessions++
	if !p.ok {
		return
	}
	if seen[p.host] {
		return
	}
	seen[p.host] = true

	// Never-before-seen domain: verify it still shows the campaign's
	// attack, then record and blacklist-check it.
	if !p.hashed || phash.Distance(p.hash, src.RepHash) > m.cfg.VerifyBits {
		return
	}
	m.met.newDomains.Inc()
	m.hourly("milker_new_domains_hourly", now).Inc()
	if m.cfg.Campaigns != nil {
		// Commit order is (tick, source) order, so the event log grows
		// deterministically; events are buffered here and flushed as
		// one AppendBatch per commit group (the store's batched ingest
		// path).
		*milkEvents = append(*milkEvents, campstore.Event{
			Hash: p.hash, E2LD: urlx.E2LD(p.host), Tick: now, Source: campstore.SourceMilk,
		})
	}
	m.met.gsbPolls.Inc()
	d := MilkedDomain{
		Host: p.host, Category: src.Category, CampaignID: src.CampaignID,
		FirstSeen: now,
		GSBInit:   m.gsb.Lookup(p.host, now),
	}
	if d.GSBInit {
		d.GSBListedAt = now
	}

	// Harvest scam phone numbers from the fresh page (tech support).
	if res.Phones != nil && p.tab.Doc != nil {
		res.Phones.HarvestText(p.tab.Doc.Serialize(), p.host, now)
	}

	// Interact for downloads (fake software / scareware).
	interactForDownloads(p.client, p.tab)
	for _, dl := range p.tab.Downloads {
		f := MilkedFile{
			SHA256: dl.SHA256, Category: src.Category, CampaignID: src.CampaignID,
			Known: m.vt.Known(dl.SHA256),
		}
		f.Initial = m.vt.Submit(dl.SHA256, dl.CampaignID, now)
		m.met.vtSubmits.Inc()
		m.hourly("milker_vt_submissions_hourly", now).Inc()
		res.Files = append(res.Files, f)
	}

	m.met.verified.Inc()
	res.VerifiedMatch++
	if d.GSBListedAt.IsZero() {
		*unlisted = append(*unlisted, len(res.Domains))
	}
	res.Domains = append(res.Domains, d)
}

func interactForDownloads(client *devtools.Client, tab *browser.Tab) {
	if tab.Doc == nil {
		return
	}
	if el := tab.Doc.Root.Find("install"); el != nil {
		_, _ = client.ClickElement(tab, el)
	}
}

// milkTick is one virtual milking instant and the sources due at it.
type milkTick struct {
	now time.Time
	due []int
}

// probeReq flattens one (tick, source) pair for the worker pool.
type probeReq struct {
	si int
	at time.Time
}

// milkGroup is one coalesced run of consecutive milking ticks: the unit
// the scheduler probes as a whole and commits as a whole. One group is
// reset and refilled for the whole run, so its storage is allocated
// once.
type milkGroup struct {
	ticks  []milkTick
	reqs   []probeReq
	probes []milkProbe
}

func (g *milkGroup) addDue(now time.Time, si int) {
	if n := len(g.ticks); n == 0 || !g.ticks[n-1].now.Equal(now) {
		if n < cap(g.ticks) {
			// Revive a prior tick slot to reuse its due slice.
			g.ticks = g.ticks[:n+1]
			g.ticks[n].now = now
			g.ticks[n].due = g.ticks[n].due[:0]
		} else {
			g.ticks = append(g.ticks, milkTick{now: now})
		}
	}
	t := &g.ticks[len(g.ticks)-1]
	t.due = append(t.due, si)
}

func (g *milkGroup) reset() { g.ticks = g.ticks[:0] }

// buildReqs flattens the group's ticks into the positional worklist the
// pool consumes, and sizes the probe output to match. Same-instant
// timer callbacks fire in scheduling order, which is already ascending
// source order; the sort makes the commit-order contract explicit
// rather than inherited.
func (g *milkGroup) buildReqs() {
	g.reqs = g.reqs[:0]
	for i := range g.ticks {
		t := &g.ticks[i]
		sort.Ints(t.due)
		for _, si := range t.due {
			g.reqs = append(g.reqs, probeReq{si: si, at: t.now})
		}
	}
	if cap(g.probes) < len(g.reqs) {
		g.probes = make([]milkProbe, len(g.reqs))
	} else {
		g.probes = g.probes[:len(g.reqs)]
		for i := range g.probes {
			g.probes[i] = milkProbe{}
		}
	}
}

// pollUnlisted looks up every yet-unlisted domain at now and compacts
// the unlisted index. The lookups are pure reads of the sharded
// blacklist, so with enough of them pending they fan out across the
// worker pool; the verdict merge stays serial in domain order either
// way, so the bookkeeping is schedule-independent.
func (m *Milker) pollUnlisted(unlisted *[]int, res *MilkingResult, now time.Time) {
	ul := *unlisted
	hourlyPolls := m.hourly("milker_gsb_polls_hourly", now)
	const pollFanoutMin = 64
	var verdicts []bool
	if m.cfg.Workers > 1 && len(ul) >= pollFanoutMin {
		if cap(m.pollBuf) < len(ul) {
			m.pollBuf = make([]bool, len(ul))
		}
		verdicts = m.pollBuf[:len(ul)]
		m.runParallel(len(ul), nil, func(k int) {
			verdicts[k] = m.gsb.Lookup(res.Domains[ul[k]].Host, now)
		})
	}
	w := 0
	for k, di := range ul {
		d := &res.Domains[di]
		m.met.gsbPolls.Inc()
		hourlyPolls.Inc()
		listed := false
		if verdicts != nil {
			listed = verdicts[k]
		} else {
			listed = m.gsb.Lookup(d.Host, now)
		}
		if listed {
			d.GSBListedAt = now
		} else {
			ul[w] = di
			w++
		}
	}
	*unlisted = ul[:w]
}

// Run executes the full tracking experiment on the virtual clock:
// milking every MilkInterval for Duration, GSB polling every GSBInterval
// until Duration+GSBExtra, and a final lookup at
// Duration+FinalLookupAfter (files are rescanned then too).
//
// Consecutive milking ticks coalesce into groups that never extend
// across a blacklist-poll instant. Each group's sessions are probed
// across cfg.Workers workers, every probe pinned to its tick's virtual
// instant, and then committed serially in (tick, source) order before
// the clock moves on. A poll therefore always sees every session due
// before it committed, so the result is byte-identical for every worker
// count (see DESIGN.md).
func (m *Milker) Run(sources []MilkSource) (*MilkingResult, error) {
	return m.RunContext(context.Background(), sources)
}

// RunContext is Run with cancellation. Cancellation is observed at
// group granularity: once ctx is done every recurring timer declines to
// re-arm, pending (un-probed) ticks are dropped whole, the final sweep
// is skipped, and ctx.Err() is returned with the partial result. A
// group that already started committing always finishes committing —
// the partial result never contains a partially-committed batch. For a
// never-cancelled context the behaviour (and the result bytes) are
// identical to Run — the ctx checks sit outside the probe/commit work
// and cannot reorder it.
func (m *Milker) RunContext(ctx context.Context, sources []MilkSource) (*MilkingResult, error) {
	if m.cfg.MaxSources > 0 && len(sources) > m.cfg.MaxSources {
		sources = sources[:m.cfg.MaxSources]
	}
	m.start = m.clock.Now()
	res := &MilkingResult{Sources: len(sources), Start: m.start, Phones: phonebl.NewBlacklist()}
	if len(sources) == 0 {
		return res, Errorf("milker: no sources")
	}
	seen := map[string]bool{}
	// unlisted indexes the res.Domains entries still awaiting a positive
	// blacklist verdict, so each poll touches only those instead of
	// rescanning every domain ever milked.
	var unlisted []int
	horizon := m.clock.Now().Add(m.cfg.Duration)
	gsbHorizon := horizon.Add(m.cfg.GSBExtra)

	// g accumulates due ticks: timer callbacks only record, flush probes
	// and commits.
	var g milkGroup

	for i := range sources {
		i := i
		if err := m.clock.Every(m.cfg.MilkInterval, horizon, func(now time.Time) bool {
			if ctx.Err() != nil {
				return false
			}
			m.met.milks.Inc()
			m.hourly("milker_milks_hourly", now).Inc()
			g.addDue(now, i)
			return true
		}); err != nil {
			return nil, Errorf("milker: schedule: %v", err)
		}
	}
	// Blacklist polling: every GSBInterval, look up every yet-unlisted
	// domain. Groups never coalesce across a poll instant, so every
	// session due before this instant has already committed.
	if err := m.clock.Every(m.cfg.GSBInterval, gsbHorizon, func(now time.Time) bool {
		if ctx.Err() != nil {
			return false
		}
		m.pollUnlisted(&unlisted, res, now)
		return true
	}); err != nil {
		return nil, Errorf("milker: gsb schedule: %v", err)
	}

	pollAligned := func(at time.Time) bool {
		d := at.Sub(m.start)
		return d > 0 && d%m.cfg.GSBInterval == 0 && !at.After(gsbHorizon)
	}
	// maxCoalescedTicks bounds how many milking instants fuse into one
	// group: enough to amortize fan-out overhead on small worker pools.
	const maxCoalescedTicks = 4
	coalesce := func(next time.Time) bool {
		return !pollAligned(next) && len(g.ticks) < maxCoalescedTicks
	}

	var milkEvents []campstore.Event
	flush := func() {
		if ctx.Err() != nil {
			// Drop the whole un-probed group: cancellation never emits a
			// partially-committed batch.
			g.reset()
			return
		}
		if len(g.ticks) == 0 {
			return
		}
		g.buildReqs()
		// Probe phase: fans out across the pool. Probes write no shared
		// state; the seen set they read changes only in the commit phase
		// below, which re-checks it authoritatively.
		probes, reqs := g.probes, g.reqs
		m.runParallel(len(reqs), m.workerCtrs, func(k int) {
			probes[k] = m.probe(sources[reqs[k].si], seen, reqs[k].at)
		})
		// Commit phase: replay the group serially in (tick, source)
		// order, then flush its verified milk events to the campaign
		// store as one batched append.
		k := 0
		for i := range g.ticks {
			t := &g.ticks[i]
			for _, si := range t.due {
				m.commit(sources[si], probes[k], t.now, res, seen, &unlisted, &milkEvents)
				k++
			}
		}
		if m.cfg.Campaigns != nil && len(milkEvents) > 0 {
			_, _ = m.cfg.Campaigns.AppendBatch(milkEvents)
			milkEvents = milkEvents[:0]
		}
		g.reset()
	}

	m.clock.AdvanceToCoalesced(gsbHorizon.Add(time.Minute), coalesce, flush)
	res.End = horizon
	if err := ctx.Err(); err != nil {
		return res, Errorf("milker: cancelled: %v", err)
	}

	// Final sweep two months after milking ended.
	finalAt := horizon.Add(m.cfg.FinalLookupAfter)
	m.clock.AdvanceTo(finalAt)
	for i := range res.Domains {
		d := &res.Domains[i]
		m.met.gsbPolls.Inc()
		d.GSBFinal = m.gsb.Lookup(d.Host, finalAt)
		// GSBListedAt is left zero for final-lookup-only detections: the
		// exact listing time between polls is unknown, so they are
		// excluded from lag statistics.
	}
	for i := range res.Files {
		f := &res.Files[i]
		if rep, err := m.vt.Rescan(f.SHA256, finalAt); err == nil {
			f.Final = rep
		}
	}
	return res, nil
}
