package seacma_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro"
	"repro/internal/campstore"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

// goldenReportDigests pins the SHA-256 of reportBytes (tiny world,
// milking on) per seed. It is the behavioural contract of the whole
// pipeline: every worker count, and every cache left in or out, must
// reproduce these bytes. A deliberate change to the report bytes
// re-pins these values.
var goldenReportDigests = map[int64]string{
	1: "bf6c8e777e37b7a3abb36674c94d1f3c17131aff6bb29a71391f061ec8525bd5",
	2: "c988a6892e866c13e106ae3198311e9806ba363369a39cc425ceeaa34ff52fc1",
	3: "38bc9c5f9ee399dbd96523d6bc46dc8993112e6cb00267530af8ecdf3fbd5933",
}

// reportConfig is the tiny-world, milking-on configuration every
// pinned digest describes, at the given worker count on every parallel
// stage — crawl farm, milking engine, discovery neighbourhood index.
func reportConfig(seed int64, workers int) seacma.ExperimentConfig {
	cfg := seacma.QuickExperimentConfig()
	cfg.World.Seed = seed
	cfg.SetWorkers(workers)
	// Shrink the tracking horizon: determinism does not get stronger
	// with more virtual days, only slower.
	cfg.Milker.Duration = 6 * time.Hour
	cfg.Milker.GSBExtra = 6 * time.Hour
	cfg.Milker.FinalLookupAfter = 24 * time.Hour
	cfg.Milker.MaxSources = 40
	return cfg
}

// reportBytes runs the full pipeline for seed under reportConfig and
// returns the serialized report. tweak, when non-nil, adjusts the
// experiment between construction and the run.
func reportBytes(t *testing.T, seed int64, workers int, tweak func(*seacma.Experiment)) []byte {
	t.Helper()
	exp := seacma.NewExperiment(reportConfig(seed, workers))
	if tweak != nil {
		tweak(exp)
	}
	res, err := exp.Run()
	if err != nil {
		t.Fatalf("seed %d workers %d: %v", seed, workers, err)
	}
	return serializeReport(t, exp, res.RunResult)
}

// serializeReport builds and serializes the report of a finished run.
func serializeReport(t *testing.T, exp *seacma.Experiment, res *core.RunResult) []byte {
	t.Helper()
	patterns := core.PatternSetFromSeeds(exp.Pipeline.Cfg.Seeds)
	rep := core.BuildReport(res, patterns, exp.World.GSB, exp.World.Webcat, exp.World.Clock.Now())
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

// assertGolden fails unless report hashes to the pinned digest of seed.
func assertGolden(t *testing.T, label string, seed int64, report []byte) {
	t.Helper()
	sum := sha256.Sum256(report)
	if got, want := hex.EncodeToString(sum[:]), goldenReportDigests[seed]; got != want {
		t.Errorf("%s: report digest %s, pinned %s", label, got, want)
	}
}

// TestReportDeterministicAcrossWorkerCounts is the parallelism
// contract: the same seed must produce the pinned report whether crawl
// sessions, same-tick milking sessions and clustering neighbourhoods
// are computed by one worker or eight.
func TestReportDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, w := range []int{1, 8} {
			assertGolden(t, fmt.Sprintf("seed %d workers %d", seed, w), seed, reportBytes(t, seed, w, nil))
		}
	}
}

// TestReportDeterministicWithScriptCacheOnOff is the behaviour-invariance
// contract of the compile-once program cache at the system level: the
// end-to-end report must be the pinned one whether ad scripts run as
// shared cached Programs or are re-parsed for every execution (a nil
// ProgramCache).
func TestReportDeterministicWithScriptCacheOnOff(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	cached := reportBytes(t, 1, 4, nil)
	uncached := reportBytes(t, 1, 4, func(exp *seacma.Experiment) { exp.Pipeline.Cfg.Scripts = nil })
	assertGolden(t, "seed 1 workers 4 with the program cache", 1, cached)
	assertGolden(t, "seed 1 workers 4 without a program cache", 1, uncached)
}

// TestReportDeterministicAcrossOddWorkerCounts extends the contract to
// worker counts that do not divide typical batch sizes evenly: W3 and
// W5 leave ragged tails on the probe fan-out, which is exactly where an
// off-by-one in the milking scheduler's group replay would surface.
func TestReportDeterministicAcrossOddWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	for _, w := range []int{3, 5} {
		assertGolden(t, fmt.Sprintf("workers %d", w), 1, reportBytes(t, 1, w, nil))
	}
}

// TestReportBatchFallback covers discovery's batch-clustering
// fallback. A shared campaign store that clusters under other
// parameters than the run's declines the run's observations, so
// discovery batch-clusters instead, attaches no store and counts one
// fallback. That must hold through the streaming coordinator (Run) and
// through the per-stage Pipeline.Discover alike, and the report must
// still be the pinned one.
func TestReportBatchFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	other := cluster.PaperParams
	other.MinPts++
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
		cfg.Campaigns = campstore.New(campstore.Config{Params: other})
		exp := seacma.NewExperiment(cfg)
		res, err := r.run(exp)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if res.Discovery.Store != nil {
			t.Errorf("%s: batch fallback attached a store", r.name)
		}
		if got := cfg.Obs.Counter("discovery_incremental_fallback_total").Value(); got != 1 {
			t.Errorf("%s: discovery_incremental_fallback_total = %d, want 1", r.name, got)
		}
		assertGolden(t, r.name, 1, serializeReport(t, exp, res))
	}
}
