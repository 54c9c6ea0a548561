// Command seacmabench is the SEACMA benchmark. It runs one workload
// through the repository's public API and prints, as the last line of
// its standard output, one JSON result:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}
//
// The line before it is an info object: host shape, effective worker
// counts, the job spec and the load's offered rates.
//
//	seacmabench --workload crawl|milk|ingest --seed N --seconds S --trace 0|1 \
//	    --serve-bin PATH --out DIR
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs the traced job instead, timing the calls into each layer, and
// writes its spans and per-layer table under --out/trace. run.sh builds
// the binaries and supplies --serve-bin and --out; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/serve"
)

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	serveBin string
	out      string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("seacmabench", flag.ContinueOnError)
	var o options
	var seconds, trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&seconds, "seconds", 20, "how long one run measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced job and reports per-layer metrics")
	fs.StringVar(&o.serveBin, "serve-bin", "", "seacma-serve binary (ingest workload)")
	fs.StringVar(&o.out, "out", ".bench_build/work", "working directory: daemon address file, trace spans, per-layer table")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if seconds < 1 || seconds > 120 {
		return o, fmt.Errorf("--seconds must be in [1,120]")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.duration = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if o.workload == wIngest && o.serveBin == "" {
		return o, fmt.Errorf("the ingest workload needs --serve-bin")
	}
	if o.workload == wIngest && runtime.NumCPU() < 2 {
		// Its writer and reader connections would outnumber the CPUs.
		return o, fmt.Errorf("the ingest workload needs at least 2 CPUs, have %d", runtime.NumCPU())
	}
	return o, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates one run's result and its info block.
type outcome struct {
	result
	Info     map[string]any
	trace    bool
	failures []string
}

func newOutcome(o options, specs []serve.JobSpec) *outcome {
	spec := specs[0]
	workers := map[string]int{
		"crawl":     1,
		"discovery": spec.Workers,
		"milking":   milkWorkers,
	}
	if o.workload == wIngest {
		workers["ingest_writer_connections"] = 1
		workers["ingest_reader_connections"] = 1
	}
	return &outcome{
		result: result{Metrics: map[string]metric{}},
		trace:  o.trace,
		Info: map[string]any{
			"workload":  o.workload,
			"seed":      o.seed,
			"seconds":   o.duration.Seconds(),
			"trace":     o.trace,
			"job_specs": specs,
			"host":      hostInfo(),
			// The crawl and the milker's probes run one worker (their
			// output depends on it); discovery runs one worker per CPU.
			"workers": workers,
		},
	}
}

// fail counts one failed operation and keeps its reason.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric under its declared unit.
func (o *outcome) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("undeclared metric " + name)
	}
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

// hostInfo is the host and toolchain shape a result was measured on.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// checkMetrics verifies the run reports exactly the declared metric set
// of its mode, each a finite number; end-to-end metrics must also be
// positive, since zero would mean nothing was measured.
func (o *outcome) checkMetrics() error {
	want := e2eMetrics
	if o.trace {
		want = layerMetrics
	}
	var missing []string
	for _, m := range want {
		v, ok := o.Metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not a finite number", m.Name)
		}
		if !o.trace && v.Value <= 0 {
			return fmt.Errorf("metric %s has no samples (value %v)", m.Name, v.Value)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if len(o.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, declared %d", len(o.Metrics), len(want))
	}
	return nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var out *outcome
	switch {
	case o.trace:
		out, err = runTrace(ctx, o)
	case o.workload == wIngest:
		out, err = runIngest(ctx, o)
	default:
		out, err = runJobs(ctx, o)
	}
	if err != nil {
		return err
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "seacmabench: failed:", f)
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	if out.Failed == 0 {
		if err := out.checkMetrics(); err != nil {
			return err
		}
	}
	out.Correct = out.Failed == 0
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"info": out.Info}); err != nil {
		return err
	}
	return enc.Encode(out.result)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "seacmabench:", err)
		os.Exit(1)
	}
}
