package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
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
// off-domain URLs upstream of each attack page. It builds each SE
// session's graph from the session's Events.
func ExtractMilkingSources(sessions []*crawler.Session, disc *DiscoveryResult) []MilkSource {
	graphs := map[int]*btgraph.Graph{}
	return extractMilkingSources(sessions, disc, func(si, li int) []string {
		g, ok := graphs[si]
		if !ok {
			g = btgraph.FromEvents(sessions[si].Events)
			graphs[si] = g
		}
		cands, _ := g.MilkingCandidates(sessions[si].Landings[li].URL.String())
		return cands
	})
}

// extractMilkingSources is ExtractMilkingSources over a candidate
// lookup: upstream(si, li) returns the milking candidates of landing li
// of session si, nil when there are none. ExtractMilkingSources builds
// graphs for the lookup; the streaming coordinator passes the lists its
// analysis pool computed, because commit has dropped the logs the
// graphs came from.
func extractMilkingSources(sessions []*crawler.Session, disc *DiscoveryResult, upstream func(si, li int) []string) []MilkSource {
	seen := map[string]bool{}
	var out []MilkSource
	for _, c := range disc.Campaigns() {
		for _, m := range c.Members {
			obs := disc.Observations[m]
			for _, ref := range obs.Refs {
				s := sessions[ref.Session]
				for _, cand := range upstream(ref.Session, ref.Landing) {
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
	// Workers is the number of concurrent milking sessions per commit
	// group (default 8 when <= 0, capped at GOMAXPROCS). A group's
	// sessions fan out across the pool for the order-independent half of
	// the work (navigation, rendering, hashing) and are committed
	// serially in (tick, source) order, so every result is
	// byte-identical for any value.
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
	if c.Workers <= 0 {
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

// validate reports a configuration the tracking loop cannot run: after
// defaults, both periods must be positive and no horizon negative.
func (c MilkerConfig) validate() error {
	c.fillDefaults()
	switch {
	case c.MilkInterval <= 0:
		return fmt.Errorf("MilkInterval must be > 0 (got %v)", c.MilkInterval)
	case c.GSBInterval <= 0:
		return fmt.Errorf("GSBInterval must be > 0 (got %v)", c.GSBInterval)
	case c.Duration < 0:
		return fmt.Errorf("Duration must be >= 0 (got %v)", c.Duration)
	case c.GSBExtra < 0:
		return fmt.Errorf("GSBExtra must be >= 0 (got %v)", c.GSBExtra)
	case c.FinalLookupAfter < 0:
		return fmt.Errorf("FinalLookupAfter must be >= 0 (got %v)", c.FinalLookupAfter)
	}
	return nil
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
	m.runParallel(len(cands), func(k int) {
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
// serially for one worker / one item. Each item counts once on the
// executing worker's milker_sessions_total counter (the serial path
// counts as worker 0). Batch closures must perform only
// order-independent work: which worker handles which item can never
// influence a result.
func (m *Milker) runParallel(n int, run func(k int)) {
	if m.cfg.Workers <= 1 || n <= 1 {
		for k := 0; k < n; k++ {
			run(k)
			m.workerCtrs[0].Inc()
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
	job := milkJob{n: n, run: run, next: &next, wg: &wg}
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
						m.workerCtrs[w].Inc()
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

// pollUnlisted looks up every yet-unlisted domain at now and compacts
// the unlisted index, in domain order.
func (m *Milker) pollUnlisted(unlisted *[]int, res *MilkingResult, now time.Time) {
	ul := *unlisted
	m.met.gsbPolls.Add(int64(len(ul)))
	m.hourly("milker_gsb_polls_hourly", now).Add(int64(len(ul)))
	w := 0
	for _, di := range ul {
		d := &res.Domains[di]
		if m.gsb.Lookup(d.Host, now) {
			d.GSBListedAt = now
		} else {
			ul[w] = di
			w++
		}
	}
	*unlisted = ul[:w]
}

// maxGroupTicks bounds how many milking ticks one commit group holds:
// enough to amortize fan-out overhead on small worker pools.
const maxGroupTicks = 4

// timetable is the tracking protocol's fixed schedule (Section 4.2):
// a milking tick every milkEvery up to milkUntil and a blacklist poll
// every pollEvery up to pollUntil, both counted from start.
type timetable struct {
	start                time.Time
	milkEvery, pollEvery time.Duration
	milkUntil, pollUntil time.Time
}

// walk visits the timetable's instants in time order, moving clock to
// each instant before visiting it; on an instant that holds both, the
// poll goes first. Milking ticks gather into a group that flush closes
// before every poll, once it holds maxGroupTicks ticks, and after the
// last instant, so flush runs with the clock at the group's last tick
// and a poll at T sees every tick before T flushed and none at T. ctx
// is checked once per instant and before the trailing flush; once it
// is done, walk drops the open group unflushed and returns ctx.Err().
// Both periods must be positive.
func (tt timetable) walk(ctx context.Context, clock *vclock.Clock, poll, milk func(at time.Time), flush func()) error {
	nextMilk, nextPoll := tt.start.Add(tt.milkEvery), tt.start.Add(tt.pollEvery)
	group := 0
	for {
		milkDue, pollDue := !nextMilk.After(tt.milkUntil), !nextPoll.After(tt.pollUntil)
		if !milkDue && !pollDue {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		isPoll := pollDue && (!milkDue || !nextPoll.After(nextMilk))
		isMilk := milkDue && (!pollDue || !nextMilk.After(nextPoll))
		if group > 0 && (isPoll || group == maxGroupTicks) {
			flush()
			group = 0
		}
		if isPoll {
			clock.AdvanceTo(nextPoll)
			poll(nextPoll)
			nextPoll = nextPoll.Add(tt.pollEvery)
		}
		if isMilk {
			clock.AdvanceTo(nextMilk)
			milk(nextMilk)
			group++
			nextMilk = nextMilk.Add(tt.milkEvery)
		}
	}
	if group > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		flush()
	}
	return nil
}

// Run executes the full tracking experiment on the virtual clock:
// milking every MilkInterval for Duration, GSB polling every GSBInterval
// until Duration+GSBExtra, and a final lookup at
// Duration+FinalLookupAfter (files are rescanned then too).
//
// The schedule is walked as a timetable: consecutive milking ticks
// gather into groups that never extend across a blacklist-poll instant.
// Each group's sessions are probed across cfg.Workers workers, every
// probe pinned to its tick's virtual instant, and then committed
// serially in (tick, source) order before the clock moves on. A poll
// therefore always sees every session due before it committed, so the
// result is byte-identical for every worker count (see DESIGN.md).
func (m *Milker) Run(sources []MilkSource) (*MilkingResult, error) {
	return m.RunContext(context.Background(), sources)
}

// RunContext is Run with cancellation. ctx is checked once per
// timetable instant: once it is done, the un-probed group is dropped
// whole, the final sweep is skipped, and ctx.Err() is returned with the
// partial result. A group that already started committing always
// finishes committing — the partial result never contains a
// partially-committed batch. For a never-cancelled context the
// behaviour (and the result bytes) are identical to Run — the ctx
// checks sit outside the probe/commit work and cannot reorder it.
func (m *Milker) RunContext(ctx context.Context, sources []MilkSource) (*MilkingResult, error) {
	if err := m.cfg.validate(); err != nil {
		return nil, Errorf("milker: %v", err)
	}
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
	horizon := m.start.Add(m.cfg.Duration)
	gsbHorizon := horizon.Add(m.cfg.GSBExtra)
	tt := timetable{
		start:     m.start,
		milkEvery: m.cfg.MilkInterval, pollEvery: m.cfg.GSBInterval,
		milkUntil: horizon, pollUntil: gsbHorizon,
	}

	// ticks are the open group's milking instants; every tick milks
	// every source, so session k of the group is source k%n at tick k/n.
	n := len(sources)
	var ticks []time.Time
	var probes []milkProbe
	var milkEvents []campstore.Event
	milk := func(at time.Time) {
		m.met.milks.Add(int64(n))
		m.hourly("milker_milks_hourly", at).Add(int64(n))
		ticks = append(ticks, at)
	}
	poll := func(at time.Time) { m.pollUnlisted(&unlisted, res, at) }
	flush := func() {
		// Probe phase: fans out across the pool. Probes write no shared
		// state; the seen set they read changes only in the commit phase
		// below, which re-checks it authoritatively.
		probes = slices.Grow(probes[:0], len(ticks)*n)[:len(ticks)*n]
		m.runParallel(len(probes), func(k int) {
			probes[k] = m.probe(sources[k%n], seen, ticks[k/n])
		})
		// Commit phase: replay the group serially in (tick, source)
		// order, then flush its verified milk events to the campaign
		// store as one batched append.
		for k := range probes {
			m.commit(sources[k%n], probes[k], ticks[k/n], res, seen, &unlisted, &milkEvents)
		}
		if m.cfg.Campaigns != nil && len(milkEvents) > 0 {
			_, _ = m.cfg.Campaigns.AppendBatch(milkEvents)
			milkEvents = milkEvents[:0]
		}
		ticks = ticks[:0]
	}

	err := tt.walk(ctx, m.clock, poll, milk, flush)
	m.clock.AdvanceTo(gsbHorizon.Add(time.Minute))
	res.End = horizon
	if err != nil {
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
