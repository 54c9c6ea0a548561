package core_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/worldgen"
)

// milkWithWorkers runs crawl → discovery → milking on a fresh tiny
// world with the milking engine at the given worker count. The crawl
// runs one worker; only the stage under test varies.
func milkWithWorkers(t *testing.T, workers int) *core.MilkingResult {
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
			Workers:    workers,
		},
	}, w.Internet, w.Clock, w.Search, w.GSB, w.VT, w.Webcat)
	_, byHost := p.Reverse()
	sessions := p.Crawl(byHost)
	disc, err := p.Discover(sessions)
	if err != nil {
		t.Fatal(err)
	}
	_, milk, err := p.Milk(sessions, disc)
	if err != nil {
		t.Fatal(err)
	}
	return milk
}

// TestMilkingWorkerCountInvariance is the milking engine's determinism
// contract at stage level: same-tick sessions probed by one worker or
// eight must commit the same domains, files, lags and counts. Run under
// -race this also exercises the concurrent probe wave against the
// shared world (internet, campaigns, GSB, clock).
func TestMilkingWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two pipeline runs")
	}
	serial := milkWithWorkers(t, 1)
	parallel := milkWithWorkers(t, 8)

	if serial.Sessions != parallel.Sessions || serial.Sources != parallel.Sources {
		t.Fatalf("session/source counts differ: %d/%d vs %d/%d",
			serial.Sessions, serial.Sources, parallel.Sessions, parallel.Sources)
	}
	if serial.VerifiedMatch != parallel.VerifiedMatch {
		t.Fatalf("verified counts differ: %d vs %d", serial.VerifiedMatch, parallel.VerifiedMatch)
	}
	if !reflect.DeepEqual(serial.Domains, parallel.Domains) {
		t.Fatalf("milked domains differ:\n  workers=1: %+v\n  workers=8: %+v",
			serial.Domains, parallel.Domains)
	}
	if !reflect.DeepEqual(serial.Files, parallel.Files) {
		t.Fatalf("milked files differ:\n  workers=1: %+v\n  workers=8: %+v",
			serial.Files, parallel.Files)
	}
	if len(serial.Domains) == 0 {
		t.Fatal("no domains milked — invariance vacuous")
	}
}
