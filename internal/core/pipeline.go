package core

import (
	"context"
	"sync"

	"repro/internal/adscript"
	"repro/internal/campstore"
	"repro/internal/crawler"
	"repro/internal/gsb"
	"repro/internal/obs"
	"repro/internal/screenshot"
	"repro/internal/vclock"
	"repro/internal/vtsim"
	"repro/internal/webcat"
	"repro/internal/websearch"
	"repro/internal/webtx"
)

// PipelineConfig assembles the full Figure 2 system.
type PipelineConfig struct {
	// Seeds is the analyst-curated seed ad-network list ①.
	Seeds []SeedNetwork
	// Crawler configures the farm ③.
	Crawler crawler.Config
	// Discovery configures clustering and the θc filter ⑤.
	Discovery DiscoveryParams
	// Milker configures campaign tracking ⑥.
	Milker MilkerConfig
	// MaxPublishers bounds the crawl (0 = all found).
	MaxPublishers int
	// Obs is the pipeline's observability registry: each Figure-2 stage
	// runs under a span and the hot layers (crawler, discovery, milker,
	// webtx) report counters into it. Nil (the default) disables all
	// instrumentation at one nil check per site.
	Obs *obs.Registry
	// Capture is the content-addressed capture cache shared by the crawl
	// and milking stages. NewPipeline creates one (bound to Obs) when
	// left nil, so a pipeline always runs with the fast path.
	Capture *screenshot.Cache
	// Scripts is the compile-once program cache shared by the crawl and
	// milking stages. NewPipeline creates one (bound to Obs) when left
	// nil. Clearing it on a built pipeline parses every script per run;
	// reports are byte-identical either way.
	Scripts *adscript.ProgramCache
	// Campaigns is the incremental campaign store: discovery appends
	// crawl observations and clusters through it, the milker appends
	// verified milked sightings, and a service owner queries live
	// campaign state from it. Left nil, Discover creates a run-private
	// store (reachable via DiscoveryResult.Store); a long-lived owner
	// (seacma-serve) passes one per world so repeat jobs reuse the
	// absorbed observations.
	Campaigns *campstore.Store
}

// Pipeline is the end-to-end SEACMA system bound to one (synthetic) web.
type Pipeline struct {
	Cfg      PipelineConfig
	Internet *webtx.Internet
	Clock    *vclock.Clock
	Search   *websearch.Engine
	GSB      *gsb.Blacklist
	VT       *vtsim.Service
	Webcat   *webcat.Service
}

// RunResult is everything one full pipeline run produces.
type RunResult struct {
	// PublisherHosts is the crawl pool from reversing the seeds ②.
	PublisherHosts []string
	// NetworksByHost maps each publisher to the seed networks whose
	// invariants its page matched.
	NetworksByHost map[string][]string
	// Sessions is the crawl output ③/④. RunStream (and so Run and
	// RunContext) drops each session's instrumentation log at commit,
	// so every Events here is nil; StreamOptions.OnSession receives the
	// logs.
	Sessions []*crawler.Session
	// Discovery is the clustering + triage output ⑤.
	Discovery *DiscoveryResult
	// Attributions link every landing page to an ad network ⑦.
	Attributions []Attribution
	// Sources are the verified milkable URLs ⑥.
	Sources []MilkSource
	// Milking is the tracking result ⑥ (nil if milking skipped).
	Milking *MilkingResult

	seRefOnce     sync.Once
	seRefCache    map[LandingRef]bool
	seDomainOnce  sync.Once
	seDomainCache map[string]bool
}

// IsSE reports whether a landing (by reference) belongs to a discovered
// SE campaign. Safe for concurrent use.
func (r *RunResult) IsSE(ref LandingRef) bool {
	return r.seRefs()[ref]
}

func (r *RunResult) seRefs() map[LandingRef]bool {
	r.seRefOnce.Do(func() {
		m := map[LandingRef]bool{}
		if r.Discovery != nil {
			for _, c := range r.Discovery.Campaigns() {
				for _, mi := range c.Members {
					for _, ref := range r.Discovery.Observations[mi].Refs {
						m[ref] = true
					}
				}
			}
		}
		r.seRefCache = m
	})
	return r.seRefCache
}

// IsSEDomain reports whether an e2LD belongs to a discovered SE
// campaign. Safe for concurrent use.
func (r *RunResult) IsSEDomain(e2ld string) bool {
	r.seDomainOnce.Do(func() {
		m := map[string]bool{}
		if r.Discovery != nil {
			for _, c := range r.Discovery.Campaigns() {
				for _, d := range c.Domains {
					m[d] = true
				}
			}
		}
		r.seDomainCache = m
	})
	return r.seDomainCache[e2ld]
}

// SEAttackCount returns the total SE attack instances discovered (0
// when discovery has not run).
func (r *RunResult) SEAttackCount() int {
	if r.Discovery == nil {
		return 0
	}
	n := 0
	for _, c := range r.Discovery.Campaigns() {
		n += c.AttackCount(r.Discovery.Observations)
	}
	return n
}

// NewPipeline binds a pipeline to the measurement-facing services.
func NewPipeline(cfg PipelineConfig, internet *webtx.Internet, clock *vclock.Clock,
	search *websearch.Engine, bl *gsb.Blacklist, vt *vtsim.Service, cats *webcat.Service) *Pipeline {
	if cfg.Capture == nil {
		cfg.Capture = screenshot.NewCache(0, cfg.Obs)
	}
	if cfg.Scripts == nil {
		cfg.Scripts = adscript.NewProgramCache(0, cfg.Obs)
	}
	return &Pipeline{Cfg: cfg, Internet: internet, Clock: clock, Search: search, GSB: bl, VT: vt, Webcat: cats}
}

// Reverse runs step ②.
func (p *Pipeline) Reverse() (hosts []string, byHost map[string][]string) {
	defer p.Cfg.Obs.StartSpan("reverse").End()
	return ReverseSeeds(p.Search, p.Cfg.Seeds)
}

// Crawl runs step ③ over the two IP-vantage groups.
func (p *Pipeline) Crawl(byHost map[string][]string) []*crawler.Session {
	defer p.Cfg.Obs.StartSpan("crawl").End()
	farm, tasks := p.crawlFarm(byHost)
	return farm.CrawlAll(tasks)
}

// crawlFarm builds the deterministic (task, UA) crawl plan and the farm,
// shared by the per-stage Crawl and the streaming coordinator.
func (p *Pipeline) crawlFarm(byHost map[string][]string) (*crawler.Crawler, []crawler.Task) {
	inst, res := GroupPublishers(byHost, p.Cfg.Seeds)
	var tasks []crawler.Task
	for _, h := range inst.Hosts {
		tasks = append(tasks, crawler.Task{Host: h, ClientIP: inst.ClientIP})
	}
	for _, h := range res.Hosts {
		tasks = append(tasks, crawler.Task{Host: h, ClientIP: res.ClientIP})
	}
	if p.Cfg.MaxPublishers > 0 && len(tasks) > p.Cfg.MaxPublishers {
		tasks = tasks[:p.Cfg.MaxPublishers]
	}
	ccfg := p.Cfg.Crawler
	if ccfg.Obs == nil {
		ccfg.Obs = p.Cfg.Obs
	}
	if ccfg.Capture == nil {
		ccfg.Capture = p.Cfg.Capture
	}
	if ccfg.Scripts == nil {
		ccfg.Scripts = p.Cfg.Scripts
	}
	return crawler.New(p.Internet, p.Clock, ccfg), tasks
}

// Discover runs step ⑤.
func (p *Pipeline) Discover(sessions []*crawler.Session) (*DiscoveryResult, error) {
	defer p.Cfg.Obs.StartSpan("discover").End()
	return Discover(sessions, p.discoveryParams())
}

// discoveryParams is the run's effective discovery configuration: the
// paper defaults when none are set, the pipeline's registry and shared
// campaign store unless the params name their own.
func (p *Pipeline) discoveryParams() DiscoveryParams {
	params := p.Cfg.Discovery
	if params.Cluster.MinPts == 0 {
		params = PaperDiscoveryParams
	}
	if params.Obs == nil {
		params.Obs = p.Cfg.Obs
	}
	if params.Store == nil {
		params.Store = p.Cfg.Campaigns
	}
	return params
}

// Attribute runs step ⑦.
func (p *Pipeline) Attribute(sessions []*crawler.Session) []Attribution {
	defer p.Cfg.Obs.StartSpan("attribute").End()
	return AttributeSessions(sessions, PatternSetFromSeeds(p.Cfg.Seeds))
}

// Milk runs step ⑥: candidate extraction, source verification, tracking.
func (p *Pipeline) Milk(sessions []*crawler.Session, disc *DiscoveryResult) ([]MilkSource, *MilkingResult, error) {
	return p.MilkContext(context.Background(), sessions, disc)
}

// MilkContext is Milk with cancellation, observed between source
// verification and tracking and at every virtual tick of the tracking
// loop.
func (p *Pipeline) MilkContext(ctx context.Context, sessions []*crawler.Session, disc *DiscoveryResult) ([]MilkSource, *MilkingResult, error) {
	return p.milkContext(ctx, disc, ExtractMilkingSources(sessions, disc))
}

// milkContext verifies the extracted candidates and tracks the verified
// sources. MilkContext extracts the candidates from the sessions' logs;
// the streaming coordinator from the lists it kept at commit.
func (p *Pipeline) milkContext(ctx context.Context, disc *DiscoveryResult, cands []MilkSource) ([]MilkSource, *MilkingResult, error) {
	mcfg := p.Cfg.Milker
	if mcfg.Obs == nil {
		mcfg.Obs = p.Cfg.Obs
	}
	if mcfg.Campaigns == nil && disc != nil {
		// Milked sightings extend the same store discovery clustered
		// through, so live campaign state keeps tracking during milking.
		mcfg.Campaigns = disc.Store
	}
	if mcfg.Capture == nil {
		mcfg.Capture = p.Cfg.Capture
	}
	if mcfg.Scripts == nil {
		mcfg.Scripts = p.Cfg.Scripts
	}
	milker := NewMilker(p.Internet, p.Clock, p.GSB, p.VT, mcfg)
	defer milker.Close()
	verifySpan := p.Cfg.Obs.StartSpan("verify")
	sources := milker.VerifySources(cands)
	verifySpan.End()
	if len(sources) == 0 {
		return nil, nil, Errorf("no milkable sources verified from %d candidates", len(cands))
	}
	if err := ctx.Err(); err != nil {
		return sources, nil, err
	}
	milkSpan := p.Cfg.Obs.StartSpan("milk")
	res, err := milker.RunContext(ctx, sources)
	milkSpan.End()
	return sources, res, err
}

// Run executes the full pipeline (milking included).
func (p *Pipeline) Run() (*RunResult, error) {
	return p.RunContext(context.Background())
}

// RunContext executes the full pipeline under ctx through the streaming
// coordinator (RunStream). Cancellation is observed between stages and
// inside the two long-running loops (crawl session feed, milking
// virtual ticks); a cancelled run returns ctx.Err() and the partial
// result must be discarded.
func (p *Pipeline) RunContext(ctx context.Context) (*RunResult, error) {
	return p.RunStream(ctx, StreamOptions{})
}
