// Command seacma-serve runs the campaign-intelligence pipeline as a
// long-lived daemon: submit analysis jobs over HTTP, poll phase-level
// progress, and query reports, campaigns and clusters from completed
// runs. One process owns one pipeline context (shared capture cache,
// shared ad-script program cache, one obs registry), so repeated jobs
// get warm caches and /metrics aggregates everything.
//
//	seacma-serve [-addr HOST:PORT] [-jobs N] [-queue N] [-metrics out.json]
//
//	curl -d '{"tiny":true,"seed":1}' http://127.0.0.1:8644/v1/jobs
//	curl http://127.0.0.1:8644/v1/jobs/job-000001
//	curl http://127.0.0.1:8644/v1/jobs/job-000001/report
//
// SIGINT/SIGTERM drains gracefully: new submissions get 503, in-flight
// jobs finish (cancelled after -drain-timeout), and a final metrics
// snapshot is flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// version is stamped by -ldflags "-X main.version=..." in release
// builds; /v1/version also reports the VCS revision when available.
var version = "dev"

func main() {
	log.SetFlags(0)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// serveConfig is the assembled daemon configuration; split from flag
// parsing so tests can cover the -flag → config mapping.
type serveConfig struct {
	addr         string
	jobs         int
	queueCap     int
	metrics      string
	addrFile     string
	drainTimeout time.Duration
	oracleEvery  int
}

// parseFlags maps the command line onto a serveConfig.
func parseFlags(args []string) (*serveConfig, error) {
	fs := flag.NewFlagSet("seacma-serve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8644", "listen address (port 0 picks a free port)")
		jobs     = fs.Int("jobs", 2, "concurrent pipeline jobs (worker-pool size)")
		queue    = fs.Int("queue", 16, "queued-job bound; submissions beyond it get 503")
		metrics  = fs.String("metrics", "", "write the final observability snapshot (JSON) to this file on shutdown")
		addrFile = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts and smoke tests)")
		drain    = fs.Duration("drain-timeout", time.Minute, "graceful-shutdown budget; in-flight jobs past it are cancelled")
		oracle   = fs.Int("oracle-every", 0, "self-check the incremental campaign stores against a full batch recompute every N observations (0 = never)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return &serveConfig{
		addr: *addr, jobs: *jobs, queueCap: *queue,
		metrics: *metrics, addrFile: *addrFile, drainTimeout: *drain,
		oracleEvery: *oracle,
	}, nil
}

// run serves until ctx is cancelled (the signal handler in main), then
// drains and flushes the final snapshot. It returns only on fatal
// listener errors or after a clean shutdown.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	sc, err := parseFlags(args)
	if err != nil {
		return err
	}
	reg := obs.New()
	srv := serve.New(serve.Config{
		Workers:     sc.jobs,
		QueueCap:    sc.queueCap,
		Obs:         reg,
		Version:     version,
		OracleEvery: sc.oracleEvery,
	})

	ln, err := net.Listen("tcp", sc.addr)
	if err != nil {
		return err
	}
	if sc.addrFile != "" {
		if err := os.WriteFile(sc.addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(stderr, "seacma-serve %s listening on http://%s (%d job workers, queue %d)\n",
		version, ln.Addr(), sc.jobs, sc.queueCap)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Drain first, HTTP second: clients keep polling job state over the
	// API while in-flight jobs finish; only submissions are refused.
	fmt.Fprintln(stderr, "shutting down: draining jobs (new submissions get 503)...")
	dctx, dcancel := context.WithTimeout(context.Background(), sc.drainTimeout)
	defer dcancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "drain budget %v exceeded: cancelled remaining jobs (%v)\n", sc.drainTimeout, err)
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := hs.Shutdown(hctx); err != nil {
		hs.Close()
	}
	<-serveErr // http.ErrServerClosed once Serve unwinds

	if err := reg.WriteFile(sc.metrics); err != nil {
		return err
	}
	if sc.metrics != "" {
		fmt.Fprintf(stderr, "wrote final metrics snapshot to %s\n", sc.metrics)
	}
	fmt.Fprintf(stdout, "seacma-serve stopped: %d jobs submitted, %d completed, %d failed\n",
		reg.CounterValue("serve_jobs_submitted_total"),
		reg.CounterValue("serve_jobs_completed_total"),
		reg.CounterValue("serve_jobs_failed_total"))
	return nil
}
