package core_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/worldgen"
)

// TestRunStreamRejectsBadMilkerConfigBeforeCrawl: with milking on, a
// milker configuration the tracking loop cannot run fails before seed
// reversal, as unusable DBSCAN parameters do. A negative Duration used
// to run the whole pipeline and milk nothing without an error; a
// negative MilkInterval failed only after crawl, discovery and source
// verification.
func TestRunStreamRejectsBadMilkerConfigBeforeCrawl(t *testing.T) {
	w := worldgen.Build(worldgen.TinyConfig())
	for _, c := range []struct {
		field string
		cfg   core.MilkerConfig
	}{
		{"Duration", core.MilkerConfig{Duration: -time.Hour}},
		{"MilkInterval", core.MilkerConfig{MilkInterval: -15 * time.Minute}},
	} {
		p := core.NewPipeline(core.PipelineConfig{
			Seeds:     seedsFrom(w),
			Crawler:   crawler.Config{Workers: 1},
			Discovery: core.PaperDiscoveryParams,
			Milker:    c.cfg,
		}, w.Internet, w.Clock, w.Search, w.GSB, w.VT, w.Webcat)
		var phases []string
		_, err := p.RunStream(context.Background(), core.StreamOptions{
			OnProgress: func(ev core.ProgressEvent) { phases = append(phases, ev.Phase) },
		})
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: err = %v, want one naming %s", c.field, err, c.field)
		}
		if len(phases) != 0 {
			t.Errorf("%s: rejected run still emitted %d progress events, first %q", c.field, len(phases), phases[0])
		}
	}
}
