package seacma_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/campstore"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/phash"
)

// quickStreamConfig is the shared fixture of the streaming-coordinator
// tests: tiny world, milking skipped — the stream itself is what is
// under test.
func quickStreamConfig() seacma.ExperimentConfig {
	cfg := seacma.QuickExperimentConfig()
	cfg.SkipMilking = true
	return cfg
}

// TestStreamingCancelNeverCommitsTornSession mirrors
// TestMilkingCancelNeverSplitsBatch for the streaming coordinator: a
// run cancelled mid-crawl must fail, and the campaign store it was
// appending to must hold exactly the observation sequence of some
// complete-session prefix of the crawl — never a partially committed
// session. It also proves the coordinator leaks no goroutines on early
// cancellation.
func TestStreamingCancelNeverCommitsTornSession(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	// Reference: the same deterministic crawl, run to completion.
	ref, err := seacma.NewExperiment(quickStreamConfig()).Run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	total := len(ref.Sessions)
	if total < 2 {
		t.Fatalf("fixture too small: %d sessions", total)
	}

	st := campstore.New(campstore.Config{Params: cluster.PaperParams})
	cfg := quickStreamConfig()
	cfg.Campaigns = st
	exp := seacma.NewExperiment(cfg)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err = exp.RunStream(ctx, func(ev seacma.ProgressEvent) {
		if ev.Phase == "crawl" && ev.Committed >= 1 {
			once.Do(cancel)
		}
	})
	if err == nil {
		t.Fatal("cancelled streaming run returned no error")
	}

	// The store must hold a complete-session prefix of the reference
	// observation sequence: for at least one k, the store's crawl view is
	// exactly CollectObservations(sessions[:k]).
	matched := -1
	for k := 0; k <= total; k++ {
		obs := core.CollectObservations(ref.Sessions[:k])
		if st.DiscoveryMatches(len(obs), func(i int) (phash.Hash, string) {
			return obs[i].Hash, obs[i].E2LD
		}) {
			matched = k
		}
	}
	if matched < 0 {
		t.Fatal("cancelled run left the store holding a torn (non-prefix) observation sequence")
	}
	t.Logf("cancelled run committed a clean %d-session prefix of %d", matched, total)

	// Goroutine-leak check: the analysis pool, the stream closer and the
	// crawl workers must all have drained.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak after cancelled streaming run: %d before, %d after", before, g)
	}
}

// TestStreamingOverlapCounterNonzero proves the streaming coordinator
// actually overlaps stages: with sessions analyzed and committed while
// the crawl is still running, pipeline_stage_overlap_ns_total must
// accumulate, and stage_active must return to zero once the run ends.
func TestStreamingOverlapCounterNonzero(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	reg := obs.New()
	cfg := quickStreamConfig()
	cfg.Obs = reg
	if _, err := seacma.NewExperiment(cfg).Run(); err != nil {
		t.Fatalf("streaming run: %v", err)
	}
	if v := reg.Counter("pipeline_stage_overlap_ns_total").Value(); v <= 0 {
		t.Fatalf("pipeline_stage_overlap_ns_total = %d, want > 0", v)
	}
	if v := reg.Gauge("stage_active").Value(); v != 0 {
		t.Fatalf("stage_active = %d after the run, want 0", v)
	}
}

// TestReportCoherenceFallback covers the other way a shared store
// declines a run: it clusters under the run's parameters, but its crawl
// view holds a foreign observation, so it is not this run's observation
// sequence. Discovery then labels through a fresh private store,
// attaches no store and counts one fallback — through the streaming
// coordinator (Run) and the per-stage Pipeline.Discover alike — and the
// report is still the pinned one.
func TestReportCoherenceFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	runs := []struct {
		name string
		run  func(*seacma.Experiment) (*core.RunResult, error)
	}{
		{"Run", func(exp *seacma.Experiment) (*core.RunResult, error) {
			res, err := exp.Run()
			if err != nil {
				return nil, err
			}
			return res.RunResult, nil
		}},
		{"per-stage", func(exp *seacma.Experiment) (*core.RunResult, error) {
			p := exp.Pipeline
			out := &core.RunResult{}
			out.PublisherHosts, out.NetworksByHost = p.Reverse()
			out.Sessions = p.Crawl(out.NetworksByHost)
			disc, err := p.Discover(out.Sessions)
			if err != nil {
				return nil, err
			}
			out.Discovery = disc
			out.Attributions = p.Attribute(out.Sessions)
			out.Sources, out.Milking, err = p.Milk(out.Sessions, disc)
			return out, err
		}},
	}
	for _, r := range runs {
		cfg := reportConfig(1, 4)
		cfg.Obs = obs.New()
		cfg.Campaigns = campstore.New(campstore.Config{Params: cluster.PaperParams})
		foreign := campstore.Event{Hash: phash.Hash{Hi: 0xfeed}, E2LD: "foreign.example", Source: campstore.SourceCrawl}
		if _, err := cfg.Campaigns.Append(foreign); err != nil {
			t.Fatal(err)
		}
		exp := seacma.NewExperiment(cfg)
		res, err := r.run(exp)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if res.Discovery.Store != nil {
			t.Errorf("%s: coherence fallback attached a store", r.name)
		}
		if got := cfg.Obs.Counter("discovery_incremental_fallback_total").Value(); got != 1 {
			t.Errorf("%s: discovery_incremental_fallback_total = %d, want 1", r.name, got)
		}
		assertGolden(t, r.name, 1, serializeReport(t, exp, res))
	}
}
