// Package serve turns the one-shot SEACMA pipeline into a long-running
// campaign-intelligence service: an async job engine plus an HTTP/JSON
// API.
//
// The daemon owns one pipeline context for its whole lifetime — a
// shared content-addressed capture cache, a shared compile-once
// ad-script program cache, and one obs registry — and runs every
// submitted analysis as an addressable, cancellable job on a bounded
// worker pool:
//
//	POST /v1/jobs                submit a job spec, get a job ID
//	GET  /v1/jobs                list jobs
//	GET  /v1/jobs/{id}           phase-level progress / state
//	POST /v1/jobs/{id}/cancel    cancel a queued or running job
//	GET  /v1/jobs/{id}/report    the run's report JSON (byte-identical
//	                             to the one-shot CLI output)
//	GET  /v1/campaigns[/{job}/{id}]  discovered SE campaigns
//	GET  /v1/clusters            all clusters (SE and benign)
//	GET  /v1/version             build information
//	GET  /metrics                obs registry snapshot (JSON or text)
//	GET  /healthz                liveness / drain state
//
// Determinism is preserved end to end: a job's report JSON is
// byte-identical to the one-shot seacma-report run on the same seed and
// configuration, for any worker count, because every parallel stage's
// output is proven byte-identical across counts.
package serve

import "repro/internal/obs"

// Config assembles a Server.
type Config struct {
	// Workers is the job worker-pool size (default 2): how many
	// submitted jobs run concurrently.
	Workers int
	// QueueCap bounds the number of queued-but-not-running jobs
	// (default 16); submissions beyond it are refused with 503.
	QueueCap int
	// Obs is the daemon's registry, shared by every job and exported at
	// /metrics. Nil disables instrumentation (the API still works).
	Obs *obs.Registry
	// Runner executes one job. Nil selects the real pipeline runner
	// (NewPipelineOwner(Obs).Run), which also owns the per-world
	// incremental campaign stores behind /v1/observations and the live
	// /v1/campaigns view; tests inject stubs (and lose those routes).
	Runner Runner
	// OracleEvery forwards to every world campaign store: run the full
	// batch-recompute clustering oracle after every N non-duplicate
	// observations, failing the append on divergence (0 = never).
	OracleEvery int
	// Version is reported by /v1/version (default "dev").
	Version string
}
