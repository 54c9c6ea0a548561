// Command seacma-milk runs the full pipeline including the tracking
// (milking) experiment and reports Table 4, the GSB lag, and the
// VirusTotal statistics of the milked binaries.
//
//	seacma-milk [-seed N] [-days N] [-sources N] [-interval MIN] [-workers N] [-tiny] [-metrics out.json]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/profiling"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// milkConfig is the assembled run configuration; split from flag
// parsing so tests can cover the -flag → config mapping.
type milkConfig struct {
	exp        seacma.ExperimentConfig
	days       int
	metrics    string
	cpuProfile string
	memProfile string
}

// parseFlags maps the command line onto a milkConfig.
func parseFlags(args []string) (*milkConfig, error) {
	fs := flag.NewFlagSet("seacma-milk", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "world seed")
		days     = fs.Int("days", 14, "milking horizon in virtual days (paper: 14)")
		sources  = fs.Int("sources", 300, "max milking sources (0 = unbounded; paper: 505)")
		interval = fs.Int("interval", 15, "milking interval in virtual minutes (paper: 15)")
		tiny     = fs.Bool("tiny", false, "use the tiny smoke-test world")
		metrics  = fs.String("metrics", "", "write an observability snapshot (JSON) to this file")
		workers  = fs.Int("workers", 0, "worker count for the parallel stages (0 = per-stage defaults; output is identical for any value)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	// Zero would silently fall back to the milker's defaults while the
	// summary line reports the flag's value, so both must be positive.
	if *days < 1 {
		return nil, fmt.Errorf("-days must be >= 1 (got %d)", *days)
	}
	if *interval < 1 {
		return nil, fmt.Errorf("-interval must be >= 1 (got %d)", *interval)
	}
	if *sources < 0 {
		return nil, fmt.Errorf("-sources must be >= 0 (got %d)", *sources)
	}

	cfg := seacma.DefaultExperimentConfig()
	if *tiny {
		cfg = seacma.QuickExperimentConfig()
	}
	cfg.World.Seed = *seed
	cfg.Milker.Duration = time.Duration(*days) * 24 * time.Hour
	cfg.Milker.MilkInterval = time.Duration(*interval) * time.Minute
	cfg.Milker.MaxSources = *sources
	if *workers > 0 {
		cfg.SetWorkers(*workers)
	}
	if *metrics != "" {
		cfg.Obs = obs.New()
	}
	return &milkConfig{
		exp: cfg, days: *days, metrics: *metrics,
		cpuProfile: *cpuProf, memProfile: *memProf,
	}, nil
}

func run(args []string, stdout, stderr io.Writer) (retErr error) {
	mc, err := parseFlags(args)
	if err != nil {
		return err
	}
	stopProf, err := profiling.Start(mc.cpuProfile, mc.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	exp := seacma.NewExperiment(mc.exp)
	fmt.Fprintf(stderr, "world: %d publishers, %d campaigns; running full pipeline...\n",
		len(exp.World.Publishers), len(exp.World.Campaigns))
	start := time.Now()
	res, err := exp.Run()
	if err != nil {
		return err
	}
	m := res.Milking

	if err := mc.exp.Obs.WriteFile(mc.metrics); err != nil {
		return err
	}
	if mc.metrics != "" {
		fmt.Fprintf(stderr, "wrote metrics snapshot to %s\n", mc.metrics)
	}

	fmt.Fprintf(stdout, "milking: %d sources x %d virtual days -> %d sessions (wall %v)\n",
		m.Sources, mc.days, m.Sessions, time.Since(start).Round(time.Second))
	fmt.Fprintf(stdout, "fresh attack domains harvested: %d\n", len(m.Domains))
	fmt.Fprintf(stdout, "binaries collected: %d (previously known to the scan service: %d)\n",
		len(m.Files), countKnown(m))
	if lag := m.MeanGSBLag(); lag > 0 {
		fmt.Fprintf(stdout, "mean GSB listing lag behind milking: %v (%.1f days; paper: >7 days)\n",
			lag.Round(time.Hour), lag.Hours()/24)
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, seacma.FormatTable4(res.Table4()))

	mal, strong := 0, 0
	for _, f := range m.Files {
		if f.Final.Malicious() {
			mal++
		}
		if f.Final.Positives >= 15 {
			strong++
		}
	}
	if len(m.Files) > 0 {
		fmt.Fprintf(stdout, "\nafter the 3-month rescan: %d/%d malicious (%.0f%%), %d flagged by >=15 AVs (%.0f%%)\n",
			mal, len(m.Files), pct(mal, len(m.Files)), strong, pct(strong, len(m.Files)))
	}
	return nil
}

func countKnown(m *seacma.MilkingResult) int {
	n := 0
	for _, f := range m.Files {
		if f.Known {
			n++
		}
	}
	return n
}

func pct(n, total int) float64 { return 100 * float64(n) / float64(total) }
