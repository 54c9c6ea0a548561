package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	seacma "repro"
	"repro/internal/adscript"
	"repro/internal/campstore"
	"repro/internal/screenshot"
	"repro/internal/serve"
)

// minJobs is the fewest jobs a crawl or milk run measures, so the
// medians rest on at least three samples even when one job outlasts
// --seconds.
const minJobs = 3

// jobRun is one analyst job's measurements.
type jobRun struct {
	Setup  time.Duration // world build + NewExperiment
	Wall   time.Duration // run start to report bytes
	CPU    time.Duration // process CPU over Wall
	Alloc  uint64        // bytes allocated over Wall
	RSSMB  float64       // mean RSS over Wall
	Report []byte
}

// milkWorkers is the milker's probe width in every job. Milking output
// depends on it above one: when two parallel probes reach the same new
// attack domain, the second can see it minted before the first has
// registered it on the simulated internet, miss the page, and move the
// domain's first sighting. Measured jobs then drift from the reference
// (one job in about four hundred on a loaded host; every job once that
// window is widened to 2 ms). One probe worker never overlaps two mints,
// and the pipeline still overlaps its probes with the previous group's
// commits.
const milkWorkers = 1

// jobConfig is the experiment configuration of the job: the daemon's
// mapping of the spec, with the milker at milkWorkers.
func jobConfig(spec serve.JobSpec) seacma.ExperimentConfig {
	cfg := serve.SpecExperimentConfig(spec)
	cfg.Milker.Workers = milkWorkers
	return cfg
}

// newExperiment builds the job's world and pipeline with caches and a
// campaign store of the benchmark's own, as the seacma-serve daemon
// passes them in.
func newExperiment(spec serve.JobSpec) *seacma.Experiment {
	cfg := jobConfig(spec)
	cfg.Capture = screenshot.NewCache(0, nil)
	cfg.Scripts = adscript.NewProgramCache(0, nil)
	cfg.Campaigns = campstore.New(campstore.Config{})
	return seacma.NewExperiment(cfg)
}

// runJob runs one job through the public API: set-up, the streaming
// pipeline, then the report bytes.
func runJob(ctx context.Context, spec serve.JobSpec) (jobRun, error) {
	// Start every job from a collected heap with memory returned to the
	// OS, so its RSS and GC work do not depend on the job before.
	debug.FreeOSMemory()
	var r jobRun
	t0 := time.Now()
	exp := newExperiment(spec)
	r.Setup = time.Since(t0)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rss := startRSS(os.Getpid())
	cpu0, err := processCPU(os.Getpid())
	if err != nil {
		return r, err
	}
	t1 := time.Now()
	res, err := exp.RunStream(ctx, nil)
	if err != nil {
		rss.finish()
		return r, err
	}
	var buf bytes.Buffer
	if err := res.Report().WriteJSON(&buf); err != nil {
		rss.finish()
		return r, err
	}
	r.Wall = time.Since(t1)
	cpu1, err := processCPU(os.Getpid())
	if err != nil {
		rss.finish()
		return r, err
	}
	r.CPU = cpu1 - cpu0
	if r.RSSMB, err = rss.finish(); err != nil {
		return r, err
	}
	runtime.ReadMemStats(&after)
	r.Alloc = after.TotalAlloc - before.TotalAlloc
	r.Report = buf.Bytes()
	return r, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkReport accepts a job's report only if its SHA-256 equals the
// reference digest.
func checkReport(report []byte, ref string) error {
	if got := digest(report); got != ref {
		return fmt.Errorf("report digest %s, reference %s", got, ref)
	}
	return nil
}

// referenceDigest computes, untimed, the report digest of the job with
// every stage at one worker. Measured jobs must reproduce it exactly.
func referenceDigest(ctx context.Context, spec serve.JobSpec) (string, error) {
	spec.Workers = 1
	r, err := runJob(ctx, spec)
	if err != nil {
		return "", fmt.Errorf("reference job: %w", err)
	}
	return digest(r.Report), nil
}

// runJobs is the crawl and milk workloads: one client running the
// workload's jobs back to back (a closed loop) for the run's duration,
// cycling through the run's worlds and stopping only after a whole
// cycle, so every world weighs the same in the medians.
func runJobs(ctx context.Context, o options) (*outcome, error) {
	specs := jobSpecs(o.workload, o.seed, runtime.GOMAXPROCS(0))
	refs := make([]string, len(specs))
	for k, spec := range specs {
		var err error
		if refs[k], err = referenceDigest(ctx, spec); err != nil {
			return nil, err
		}
	}
	out := newOutcome(o, specs)
	var setups, walls, cpus, rsss, allocs []float64
	deadline := time.Now().Add(o.duration)
	for out.Failed < minJobs && (len(walls) < minJobs || out.Attempted%len(specs) != 0 || time.Now().Before(deadline)) {
		k := out.Attempted % len(specs)
		out.Attempted++
		r, err := runJob(ctx, specs[k])
		if err != nil {
			out.fail("job %d: %v", out.Attempted, err)
			continue
		}
		if err := checkReport(r.Report, refs[k]); err != nil {
			out.fail("job %d: %v", out.Attempted, err)
			continue
		}
		setups = append(setups, r.Setup.Seconds())
		walls = append(walls, float64(r.Wall.Nanoseconds())/1e6)
		cpus = append(cpus, float64(r.CPU.Nanoseconds())/1e6)
		rsss = append(rsss, r.RSSMB)
		allocs = append(allocs, float64(r.Alloc)/(1<<20))
	}
	if len(walls) == 0 {
		return out, nil
	}
	out.Info["reference_digests"] = refs
	out.Info["jobs"] = len(walls)
	out.Info["job_ms"] = walls
	out.Info["alloc_mb_p50"] = medianOf(allocs)
	out.set("setup_s", medianOf(setups))
	out.set("op_p50_ms", medianOf(walls))
	out.set("op_cpu_ms", medianOf(cpus))
	out.set("rss_mb", medianOf(rsss))
	return out, nil
}
