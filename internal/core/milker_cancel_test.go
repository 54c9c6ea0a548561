package core_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/worldgen"
)

// flipCtx is a context whose Err flips to Canceled permanently after a
// fixed number of Err calls — a deterministic way to cancel the milking
// loop mid-run, deep inside the tick schedule, without wall-clock
// timing.
type flipCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// milkUnderCtx runs crawl → discovery → milking on a fresh tiny world
// and returns the verified sources plus the (possibly partial) milking
// result and error.
func milkUnderCtx(t *testing.T, ctx context.Context) ([]core.MilkSource, *core.MilkingResult, error) {
	t.Helper()
	w := worldgen.Build(worldgen.TinyConfig())
	p := core.NewPipeline(core.PipelineConfig{
		Seeds:     seedsFrom(w),
		Crawler:   crawler.Config{Workers: 1},
		Discovery: core.PaperDiscoveryParams,
		Milker: core.MilkerConfig{
			Duration:   6 * time.Hour,
			GSBExtra:   6 * time.Hour,
			MaxSources: 30,
			Workers:    4,
		},
	}, w.Internet, w.Clock, w.Search, w.GSB, w.VT, w.Webcat)
	_, byHost := p.Reverse()
	sessions := p.Crawl(byHost)
	disc, err := p.Discover(sessions)
	if err != nil {
		t.Fatal(err)
	}
	return p.MilkContext(ctx, sessions, disc)
}

// TestMilkingCancelNeverSplitsBatch is the milking scheduler's
// cancellation contract: a run cancelled mid-schedule must return a
// partial result that (a) contains only whole committed batches — every
// milking tick schedules one session per source, batches coalesce whole
// ticks, and a group that started committing always finishes, so the
// session count must be an exact multiple of the source count — and (b)
// is a prefix of the uncancelled run on every field fixed at commit
// time. A torn batch would break both.
func TestMilkingCancelNeverSplitsBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("two pipeline runs")
	}
	fullSources, full, err := milkUnderCtx(t, context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Cancel after enough Err calls to get well into the tick schedule
	// but well short of its end: with 30 sources and 24 ticks, the milk
	// timers alone make ~720 Err checks.
	ctx := &flipCtx{Context: context.Background(), after: 300}
	sources, partial, err := milkUnderCtx(t, ctx)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if partial == nil {
		t.Fatal("cancelled run returned nil result — partial result expected")
	}
	if len(sources) != len(fullSources) {
		t.Fatalf("source verification diverged: %d vs %d sources", len(sources), len(fullSources))
	}

	if partial.Sessions == 0 {
		t.Fatal("cancellation fired before any batch committed — flip threshold too low for the invariant to bite")
	}
	if partial.Sessions >= full.Sessions {
		t.Fatalf("cancellation fired too late: partial %d sessions, full %d", partial.Sessions, full.Sessions)
	}
	if partial.Sessions%len(sources) != 0 {
		t.Fatalf("partially-committed batch escaped: %d sessions is not a multiple of %d sources",
			partial.Sessions, len(sources))
	}

	// Commit order is deterministic, so the partial result's domains
	// must be a prefix of the full run's on the commit-time fields.
	// (GSBListedAt and GSBFinal legitimately differ: the full run polls
	// longer and runs the final sweep the cancelled run skips.)
	if len(partial.Domains) > len(full.Domains) {
		t.Fatalf("partial run found more domains (%d) than full run (%d)",
			len(partial.Domains), len(full.Domains))
	}
	for i, pd := range partial.Domains {
		fd := full.Domains[i]
		if pd.Host != fd.Host || pd.Category != fd.Category ||
			pd.CampaignID != fd.CampaignID || !pd.FirstSeen.Equal(fd.FirstSeen) ||
			pd.GSBInit != fd.GSBInit {
			t.Fatalf("domain %d diverges from full-run prefix:\n  partial: %+v\n  full:    %+v", i, pd, fd)
		}
	}
	if len(partial.Domains) == 0 {
		t.Fatal("no domains committed before cancellation — prefix check vacuous")
	}
}
