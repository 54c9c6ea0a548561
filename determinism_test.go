package seacma_test

import (
	"bytes"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
)

// reportBytes runs the full pipeline with the given worker count on
// every parallel stage — crawl farm, milking engine, discovery
// neighbourhood index — and returns the serialized report.
func reportBytes(t *testing.T, workers int) []byte {
	t.Helper()
	return reportBytesCfg(t, workers, false, false)
}

// reportBytesCfg additionally allows forcing the parse-per-run script
// path and the inline (plane-cache-free) hash kernel, for the
// cache-on/cache-off invariance contracts.
func reportBytesCfg(t *testing.T, workers int, disableScriptCache, disableNoisePlanes bool) []byte {
	t.Helper()
	return reportBytesMode(t, workers, disableScriptCache, disableNoisePlanes, false)
}

// reportBytesMode additionally selects the execution schedule: streaming
// coordinator (the default) or the legacy phased path.
func reportBytesMode(t *testing.T, workers int, disableScriptCache, disableNoisePlanes, disableStreaming bool) []byte {
	t.Helper()
	cfg := seacma.QuickExperimentConfig()
	cfg.DisableStreaming = disableStreaming
	cfg.SetWorkers(workers)
	// Shrink the tracking horizon: determinism does not get stronger
	// with more virtual days, only slower.
	cfg.Milker.Duration = 6 * time.Hour
	cfg.Milker.GSBExtra = 6 * time.Hour
	cfg.Milker.FinalLookupAfter = 24 * time.Hour
	cfg.Milker.MaxSources = 40

	exp := seacma.NewExperiment(cfg)
	if disableScriptCache {
		exp.Pipeline.Cfg.Scripts = nil
		exp.Pipeline.Cfg.DisableScriptCache = true
	}
	if disableNoisePlanes {
		exp.Pipeline.Cfg.DisableNoisePlanes = true
		exp.Pipeline.Cfg.Capture.DisableNoisePlanes()
	}
	res, err := exp.Run()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	patterns := core.PatternSetFromSeeds(exp.Pipeline.Cfg.Seeds)
	rep := core.BuildReport(res.RunResult, patterns, exp.World.GSB, exp.World.Webcat, exp.World.Clock.Now())
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("workers=%d: serialize: %v", workers, err)
	}
	return buf.Bytes()
}

// reportBytesLockstep forces the milking scheduler back into strict
// lock-step (probe wave and commit of each batch strictly alternate,
// no tick coalescing, no probe/commit overlap) — the A/B reference for
// the pipelined scheduler's equivalence contract.
func reportBytesLockstep(t *testing.T, workers int) []byte {
	t.Helper()
	cfg := seacma.QuickExperimentConfig()
	cfg.SetWorkers(workers)
	cfg.Milker.Duration = 6 * time.Hour
	cfg.Milker.GSBExtra = 6 * time.Hour
	cfg.Milker.FinalLookupAfter = 24 * time.Hour
	cfg.Milker.MaxSources = 40
	cfg.Milker.DisablePipeline = true

	exp := seacma.NewExperiment(cfg)
	res, err := exp.Run()
	if err != nil {
		t.Fatalf("lockstep workers=%d: %v", workers, err)
	}
	patterns := core.PatternSetFromSeeds(exp.Pipeline.Cfg.Seeds)
	rep := core.BuildReport(res.RunResult, patterns, exp.World.GSB, exp.World.Webcat, exp.World.Clock.Now())
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("lockstep workers=%d: serialize: %v", workers, err)
	}
	return buf.Bytes()
}

// assertSameReport fails with the first divergent byte and its context
// when two serialized reports differ.
func assertSameReport(t *testing.T, labelA, labelB string, a, b []byte) {
	t.Helper()
	if bytes.Equal(a, b) {
		return
	}
	sa, sb := string(a), string(b)
	i := 0
	for i < len(sa) && i < len(sb) && sa[i] == sb[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	t.Fatalf("report diverges at byte %d:\n  %s: ...%s\n  %s: ...%s",
		i, labelA, sa[lo:min(i+80, len(sa))], labelB, sb[lo:min(i+80, len(sb))])
}

// TestReportDeterministicAcrossWorkerCounts is the parallelism
// contract: the same seed must produce a byte-identical report whether
// crawl sessions, same-tick milking sessions and clustering
// neighbourhoods are computed by one worker or eight.
func TestReportDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	serial := reportBytes(t, 1)
	parallel := reportBytes(t, 8)
	if !bytes.Equal(serial, parallel) {
		a, b := string(serial), string(parallel)
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("report diverges at byte %d:\n  workers=1: ...%s\n  workers=8: ...%s",
			i, a[lo:min(i+80, len(a))], b[lo:min(i+80, len(b))])
	}
	if len(serial) == 0 {
		t.Fatal("empty report")
	}
}

// TestReportDeterministicAcrossOddWorkerCounts extends the contract to
// worker counts that do not divide typical batch sizes evenly: W3 and
// W5 leave ragged tails on the probe fan-out, which is exactly where an
// off-by-one in the pipelined scheduler's group replay would surface.
func TestReportDeterministicAcrossOddWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	base := reportBytes(t, 1)
	if len(base) == 0 {
		t.Fatal("empty report")
	}
	for _, w := range []int{3, 5} {
		assertSameReport(t, "workers=1", "workers="+string(rune('0'+w)), base, reportBytes(t, w))
	}
}

// TestReportDeterministicPipelinedVsLockstep is the scheduler
// equivalence contract: overlapping batch N+1's probes with batch N's
// commits (and coalescing consecutive milking ticks into one fan-out
// group) must be observationally identical to the strict lock-step
// schedule — same report, byte for byte, at the same worker count.
func TestReportDeterministicPipelinedVsLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	pipelined := reportBytes(t, 4)
	lockstep := reportBytesLockstep(t, 4)
	assertSameReport(t, "pipelined", "lockstep", pipelined, lockstep)
	if len(pipelined) == 0 {
		t.Fatal("empty report")
	}
}

// TestReportDeterministicWithScriptCacheOnOff is the behaviour-invariance
// contract of the compile-once program cache at the system level: the
// end-to-end report must be byte-identical whether ad scripts run as
// shared cached Programs or are re-parsed for every execution.
func TestReportDeterministicWithScriptCacheOnOff(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	cached := reportBytesCfg(t, 4, false, false)
	uncached := reportBytesCfg(t, 4, true, false)
	if !bytes.Equal(cached, uncached) {
		a, b := string(cached), string(uncached)
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("report diverges at byte %d:\n  cached:   ...%s\n  uncached: ...%s",
			i, a[lo:min(i+80, len(a))], b[lo:min(i+80, len(b))])
	}
	if len(cached) == 0 {
		t.Fatal("empty report")
	}
}

// TestReportDeterministicWithNoisePlanesOnOff is the same invariance
// contract for the noise-plane cache behind the fused hash kernel: the
// end-to-end report must be byte-identical whether capture noise comes
// from cached delta planes or the inline xorshift stream — and it must
// hold across worker counts at the same time (planes off at 1 worker vs
// planes on at 8), so kernel selection can never interact with
// scheduling.
func TestReportDeterministicWithNoisePlanesOnOff(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	planes := reportBytesCfg(t, 4, false, false)
	inline := reportBytesCfg(t, 4, false, true)
	crossed := reportBytesCfg(t, 1, false, true)
	for name, other := range map[string][]byte{"inline-4w": inline, "inline-1w": crossed} {
		if !bytes.Equal(planes, other) {
			a, b := string(planes), string(other)
			i := 0
			for i < len(a) && i < len(b) && a[i] == b[i] {
				i++
			}
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("report diverges from %s at byte %d:\n  planes: ...%s\n  %s: ...%s",
				name, i, a[lo:min(i+80, len(a))], name, b[lo:min(i+80, len(b))])
		}
	}
	if len(planes) == 0 {
		t.Fatal("empty report")
	}
}

// TestReportDeterministicIncrementalVsBatch proves the incremental
// campaign store path (the default) and the legacy from-scratch batch
// clustering serialize byte-identical reports, at 1 and 4 workers.
func TestReportDeterministicIncrementalVsBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	bytesFor := func(workers int, disableIncremental bool) []byte {
		cfg := seacma.QuickExperimentConfig()
		cfg.SetWorkers(workers)
		cfg.Milker.Duration = 6 * time.Hour
		cfg.Milker.GSBExtra = 6 * time.Hour
		cfg.Milker.FinalLookupAfter = 24 * time.Hour
		cfg.Milker.MaxSources = 40
		cfg.DisableIncremental = disableIncremental
		exp := seacma.NewExperiment(cfg)
		res, err := exp.Run()
		if err != nil {
			t.Fatalf("workers=%d incremental=%v: %v", workers, !disableIncremental, err)
		}
		if disableIncremental {
			if res.Discovery.Store != nil {
				t.Fatalf("legacy path attached a store")
			}
		} else if res.Discovery.Store == nil {
			t.Fatalf("incremental path did not attach a store")
		}
		patterns := core.PatternSetFromSeeds(exp.Pipeline.Cfg.Seeds)
		rep := core.BuildReport(res.RunResult, patterns, exp.World.GSB, exp.World.Webcat, exp.World.Clock.Now())
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("serialize: %v", err)
		}
		return buf.Bytes()
	}
	incr := bytesFor(1, false)
	for name, other := range map[string][]byte{
		"batch-1w":       bytesFor(1, true),
		"batch-4w":       bytesFor(4, true),
		"incremental-4w": bytesFor(4, false),
	} {
		if !bytes.Equal(incr, other) {
			t.Fatalf("report bytes diverge between incremental-1w and %s", name)
		}
	}
	if len(incr) == 0 {
		t.Fatal("empty report")
	}
}

// TestReportDeterministicStreamingVsPhased is the streaming
// coordinator's equivalence contract: overlapping crawl, discovery and
// attribution behind the session stream must serialize the exact same
// report bytes as the five-barrier phased schedule — at 1, 4 and 8
// workers, and with the script/noise-plane caches both on and off.
func TestReportDeterministicStreamingVsPhased(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	baseline := reportBytesMode(t, 1, false, false, true)
	if len(baseline) == 0 {
		t.Fatal("empty report")
	}
	for name, b := range map[string][]byte{
		"streaming-1w":         reportBytesMode(t, 1, false, false, false),
		"streaming-4w":         reportBytesMode(t, 4, false, false, false),
		"streaming-8w":         reportBytesMode(t, 8, false, false, false),
		"phased-4w":            reportBytesMode(t, 4, false, false, true),
		"phased-8w":            reportBytesMode(t, 8, false, false, true),
		"streaming-4w-nocache": reportBytesMode(t, 4, true, true, false),
		"phased-4w-nocache":    reportBytesMode(t, 4, true, true, true),
	} {
		assertSameReport(t, "phased-1w", name, baseline, b)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
