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
	"repro/internal/cli"
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
	cli.Flags
	exp seacma.ExperimentConfig
}

// parseFlags maps the command line onto a milkConfig.
func parseFlags(args []string) (*milkConfig, error) {
	fs := flag.NewFlagSet("seacma-milk", flag.ContinueOnError)
	mc := &milkConfig{}
	mc.Bind(fs)
	mc.BindDays(fs)
	var (
		sources  = fs.Int("sources", 300, "max milking sources (0 = unbounded; paper: 505)")
		interval = fs.Int("interval", 15, "milking interval in virtual minutes (paper: 15)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	// A zero -days would fall back to the config default while the
	// summary line reports the flag's value, so it must be positive.
	if mc.Spec.Days < 1 {
		return nil, fmt.Errorf("-days must be >= 1 (got %d)", mc.Spec.Days)
	}
	if *interval < 1 {
		return nil, fmt.Errorf("-interval must be >= 1 (got %d)", *interval)
	}
	if *sources < 0 {
		return nil, fmt.Errorf("-sources must be >= 0 (got %d)", *sources)
	}

	cfg, err := mc.Config()
	if err != nil {
		return nil, err
	}
	cfg.Milker.MilkInterval = time.Duration(*interval) * time.Minute
	cfg.Milker.MaxSources = *sources // 0 = unbounded here, not the spec's 300
	mc.exp = cfg
	return mc, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	mc, err := parseFlags(args)
	if err != nil {
		return err
	}
	return mc.Profile(func() error { return milk(mc, stdout, stderr) })
}

func milk(mc *milkConfig, stdout, stderr io.Writer) error {
	exp := seacma.NewExperiment(mc.exp)
	fmt.Fprintf(stderr, "world: %d publishers, %d campaigns; running full pipeline...\n",
		len(exp.World.Publishers), len(exp.World.Campaigns))
	start := time.Now()
	res, err := exp.Run()
	if err != nil {
		return err
	}
	m := res.Milking

	if err := mc.WriteMetrics(mc.exp.Obs, stderr); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "milking: %d sources x %d virtual days -> %d sessions (wall %v)\n",
		m.Sources, mc.Spec.Days, m.Sessions, time.Since(start).Round(time.Second))
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
