// Package seacma is the public API of this repository: a full
// reproduction of "What You See is NOT What You Get: Discovering and
// Tracking Social Engineering Attack Campaigns" (Vadrevu & Perdisci,
// IMC 2019).
//
// The package glues together the two halves of the reproduction:
//
//   - worldgen, the synthetic web standing in for the live Internet the
//     paper measured (ad networks, SE campaigns, publishers, Safe
//     Browsing, VirusTotal), and
//   - core, the paper's measurement pipeline (seed reversal, crawler
//     farm, screenshot clustering, campaign triage, milking, ad
//     attribution).
//
// A typical use builds an Experiment and runs it:
//
//	exp := seacma.NewExperiment(seacma.DefaultExperimentConfig())
//	result, err := exp.Run()
//	fmt.Print(seacma.FormatTable1(result.Table1()))
//
// Everything is deterministic per seed and runs on a virtual clock, so a
// 14-day milking campaign completes in seconds.
package seacma

import (
	"context"
	"time"

	"repro/internal/adnet"
	"repro/internal/adscript"
	"repro/internal/campstore"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/obs"
	"repro/internal/screenshot"
	"repro/internal/webcat"
	"repro/internal/worldgen"
)

// Re-exported pipeline vocabulary, so downstream users need only this
// package for common workflows.
type (
	// Category is an SE-attack category (Table 1 rows).
	Category = core.Category
	// SeedNetwork is an analyst-curated seed ad network.
	SeedNetwork = core.SeedNetwork
	// DiscoveredCampaign is one SEACMA campaign found by clustering.
	DiscoveredCampaign = core.DiscoveredCampaign
	// MilkSource is one verified milkable (URL, UA) pair.
	MilkSource = core.MilkSource
	// MilkingResult aggregates a tracking run.
	MilkingResult = core.MilkingResult
	// Attribution links one landing page to an ad network.
	Attribution = core.Attribution
	// Table1Row .. Table4Row are the paper's table rows.
	Table1Row = core.Table1Row
	Table3Row = core.Table3Row
	Table4Row = core.Table4Row
)

// Re-exported formatting helpers.
var (
	FormatTable1 = core.FormatTable1
	FormatTable3 = core.FormatTable3
	FormatTable4 = core.FormatTable4
)

// ExperimentConfig sizes a full reproduction run.
type ExperimentConfig struct {
	// World sizes the synthetic web.
	World worldgen.Config
	// Crawler configures the farm; zero values take paper defaults.
	Crawler crawler.Config
	// Discovery defaults to the paper's eps=0.1, MinPts=3, θc=5.
	Discovery core.DiscoveryParams
	// Milker defaults to the paper's 15-minute / 14-day setup.
	Milker core.MilkerConfig
	// MaxPublishers bounds the crawl pool (0 = all).
	MaxPublishers int
	// SkipMilking stops after discovery and attribution.
	SkipMilking bool
	// Obs, when non-nil, instruments the whole run: per-stage spans
	// (wall + virtual time), crawler/discovery/milker counters, and
	// webtx request counts by IP class. NewExperiment binds it to the
	// world's virtual clock. Nil = zero-overhead no-op.
	Obs *obs.Registry
	// Capture, when non-nil, is the content-addressed capture cache the
	// pipeline uses instead of creating its own. A long-lived owner (the
	// seacma-serve daemon) passes one instance to every experiment so
	// render→dhash work is shared across jobs; the cache is
	// content-addressed, so sharing never changes any result.
	Capture *screenshot.Cache
	// Scripts is the analogous shared compile-once ad-script program
	// cache.
	Scripts *adscript.ProgramCache
	// Campaigns, when non-nil, is the incremental campaign store the
	// run appends to and clusters through (crawl observations at
	// discovery, verified sightings during milking). A long-lived owner
	// (the seacma-serve daemon) passes one store per world so repeat
	// runs reuse the absorbed state; left nil, discovery creates a
	// run-private store, reachable afterwards via
	// Result.Discovery.Store.
	Campaigns *campstore.Store
}

// DefaultExperimentConfig is the 1/8-scale default world with the
// paper's pipeline parameters.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{
		World:     worldgen.DefaultConfig(),
		Discovery: core.PaperDiscoveryParams,
		Milker:    core.PaperMilkerConfig(),
	}
}

// QuickExperimentConfig is a fast smoke-scale configuration (tiny world,
// 2-day milking) for examples and tests.
func QuickExperimentConfig() ExperimentConfig {
	cfg := DefaultExperimentConfig()
	cfg.World = worldgen.TinyConfig()
	cfg.Milker.Duration = 2 * 24 * time.Hour
	cfg.Milker.GSBExtra = 2 * 24 * time.Hour
	cfg.Milker.MaxSources = 60
	return cfg
}

// SetWorkers sets the worker count of every parallel stage — the crawl
// farm and the milking engine — in one call (the cmd tools' -workers
// flag lands here). Reports are byte-identical for any value.
func (c *ExperimentConfig) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	c.Crawler.Workers = n
	c.Milker.Workers = n
	c.Discovery.Workers = n
}

// Experiment couples a generated world with a pipeline bound to it.
type Experiment struct {
	Cfg      ExperimentConfig
	World    *worldgen.World
	Pipeline *core.Pipeline
}

// NewExperiment builds the world and the pipeline.
func NewExperiment(cfg ExperimentConfig) *Experiment {
	w := worldgen.Build(cfg.World)
	cfg.Obs.SetVirtualNow(w.Clock.Now)
	w.Internet.SetObs(cfg.Obs)
	p := core.NewPipeline(core.PipelineConfig{
		Seeds:         SeedsFromSpecs(w),
		Crawler:       cfg.Crawler,
		Discovery:     cfg.Discovery,
		Milker:        cfg.Milker,
		MaxPublishers: cfg.MaxPublishers,
		Obs:           cfg.Obs,
		Capture:       cfg.Capture,
		Scripts:       cfg.Scripts,
		Campaigns:     cfg.Campaigns,
	}, w.Internet, w.Clock, w.Search, w.GSB, w.VT, w.Webcat)
	return &Experiment{Cfg: cfg, World: w, Pipeline: p}
}

// SeedsFromSpecs derives the analyst seed list from the world's seed
// networks — the counterpart of the paper's ~15-minutes-per-network
// manual invariant derivation (Section 3.1). Only the 11 seed networks
// are included; the three discovered networks stay unknown to the
// pipeline until the Section 4.4 analysis finds them.
func SeedsFromSpecs(w *worldgen.World) []core.SeedNetwork {
	var out []core.SeedNetwork
	for _, n := range w.Networks {
		if !n.Spec.Seed {
			continue
		}
		out = append(out, core.SeedNetwork{
			Name:                n.Name(),
			Patterns:            n.Patterns(),
			SearchSnippet:       n.SearchSnippet(),
			ResidentialRequired: n.Spec.ResidentialOnly,
		})
	}
	return out
}

// Result is a completed experiment with report accessors.
type Result struct {
	*core.RunResult
	exp *Experiment
}

// Run executes the full pipeline through the streaming coordinator
// (crawl, discovery and attribution overlap). With SkipMilking the
// milking stage is omitted and Milking stays nil.
func (e *Experiment) Run() (*Result, error) {
	return e.RunStream(context.Background(), nil)
}

// ProgressEvent re-exports the streaming pipeline's progress
// notification: a phase transition or a per-session crawl commit tick.
type ProgressEvent = core.ProgressEvent

// RunStream executes the pipeline under ctx through the streaming
// coordinator, invoking onProgress (when non-nil) on every phase
// transition and per-session commit. Phase names match the obs span
// names — reverse, crawl, discover, attribute, milk — so a progress
// consumer (the seacma-serve job engine) can correlate them with the
// span log. Cancellation is observed in the crawl session feed, between
// stages and at every milking virtual tick; a cancelled run returns
// ctx.Err() and no Result.
func (e *Experiment) RunStream(ctx context.Context, onProgress func(ProgressEvent)) (*Result, error) {
	res, err := e.Pipeline.RunStream(ctx, core.StreamOptions{
		SkipMilking: e.Cfg.SkipMilking,
		OnProgress:  onProgress,
	})
	if err != nil {
		return nil, err
	}
	return &Result{RunResult: res, exp: e}, nil
}

// Report assembles the full machine-readable report of the run — every
// table plus the headline scalars — exactly as the one-shot CLIs write
// it. GeneratedAt is the world's virtual clock, so the same seed and
// configuration serialize to byte-identical JSON no matter where or
// when the run executed.
func (r *Result) Report() core.Report {
	patterns := core.PatternSetFromSeeds(r.exp.Pipeline.Cfg.Seeds)
	return core.BuildReport(r.RunResult, patterns, r.exp.World.GSB, r.exp.World.Webcat, r.exp.World.Clock.Now())
}

// Table1 builds the paper's Table 1 from the run.
func (r *Result) Table1() []core.Table1Row {
	return core.Table1(r.Discovery, r.exp.World.GSB, r.exp.World.Clock.Now())
}

// Table2 builds the paper's Table 2 (top-N publisher categories).
func (r *Result) Table2(topN int) []webcat.CategoryCount {
	return core.Table2(r.Discovery, r.Sessions, r.exp.World.Webcat, topN)
}

// Table3 builds the paper's Table 3 (per-network attribution).
func (r *Result) Table3() []core.Table3Row {
	patterns := core.PatternSetFromSeeds(r.exp.Pipeline.Cfg.Seeds)
	return core.Table3(r.Attributions, patterns, r.IsSE)
}

// Table4 builds the paper's Table 4 (milking); nil without milking.
func (r *Result) Table4() []core.Table4Row {
	if r.Milking == nil {
		return nil
	}
	return core.Table4(r.Milking)
}

// DiscoverNewNetworks runs the Section 4.4 analysis over the run's
// Unknown-attributed attacks.
func (r *Result) DiscoverNewNetworks(minSupport int) []core.DiscoveredNetwork {
	knownVars := map[string]bool{}
	for _, s := range r.exp.Pipeline.Cfg.Seeds {
		for _, p := range s.Patterns {
			if p.BodyToken != "" {
				v := p.BodyToken
				v = trimPrefixSuffix(v, "let ", " =")
				knownVars[v] = true
			}
		}
	}
	return core.DiscoverNewNetworks(r.Attributions, r.Sessions, knownVars, r.exp.World.Search, minSupport)
}

func trimPrefixSuffix(s, prefix, suffix string) string {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		s = s[len(prefix):]
	}
	if len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix {
		s = s[:len(s)-len(suffix)]
	}
	return s
}

// SeedSpecCount returns the number of seed networks (11 in the paper).
func SeedSpecCount() int { return len(adnet.SeedSpecs()) }
