// Command seacma-report regenerates every table of the paper's
// evaluation from one pipeline run, plus the headline scalars.
//
//	seacma-report [-seed N] [-table N] [-tiny] [-workers N] [-json report.json] [-metrics out.json]
//
// -table selects a single table (1-4); by default all four are printed
// together with the Section 4.3/4.4/4.5 scalars.
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

// reportConfig is the assembled run configuration; split from flag
// parsing so tests can cover the -flag → config mapping.
type reportConfig struct {
	exp        seacma.ExperimentConfig
	table      int
	jsonFile   string
	metrics    string
	seed       int64
	cpuProfile string
	memProfile string
}

// parseFlags maps the command line onto a reportConfig.
func parseFlags(args []string) (*reportConfig, error) {
	fs := flag.NewFlagSet("seacma-report", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "world seed")
		table    = fs.Int("table", 0, "print only this table (1-4); 0 = everything")
		tiny     = fs.Bool("tiny", false, "use the tiny smoke-test world")
		jsonFile = fs.String("json", "", "also write the full machine-readable report to this file")
		metrics  = fs.String("metrics", "", "write an observability snapshot (JSON) to this file")
		workers  = fs.Int("workers", 0, "worker count for the parallel stages (0 = per-stage defaults; output is identical for any value)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *table < 0 || *table > 4 {
		return nil, fmt.Errorf("-table must be in [0,4] (got %d)", *table)
	}

	cfg := seacma.DefaultExperimentConfig()
	if *tiny {
		cfg = seacma.QuickExperimentConfig()
	}
	cfg.World.Seed = *seed
	cfg.Milker.MaxSources = 300
	if *workers > 0 {
		cfg.SetWorkers(*workers)
	}
	if *table >= 1 && *table <= 3 {
		cfg.SkipMilking = true
	}
	if *metrics != "" {
		cfg.Obs = obs.New()
	}
	return &reportConfig{
		exp: cfg, table: *table, jsonFile: *jsonFile, metrics: *metrics, seed: *seed,
		cpuProfile: *cpuProf, memProfile: *memProf,
	}, nil
}

func run(args []string, stdout, stderr io.Writer) (retErr error) {
	rc, err := parseFlags(args)
	if err != nil {
		return err
	}
	stopProf, err := profiling.Start(rc.cpuProfile, rc.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	exp := seacma.NewExperiment(rc.exp)
	fmt.Fprintf(stderr, "running pipeline on seed %d...\n", rc.seed)
	start := time.Now()
	res, err := exp.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "done in %v\n\n", time.Since(start).Round(time.Second))

	if rc.jsonFile != "" {
		reportSpan := rc.exp.Obs.StartSpan("report")
		rep := res.Report()
		reportSpan.End()
		f, err := os.Create(rc.jsonFile)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote machine-readable report to %s\n", rc.jsonFile)
	}

	if err := rc.exp.Obs.WriteFile(rc.metrics); err != nil {
		return err
	}
	if rc.metrics != "" {
		fmt.Fprintf(stderr, "wrote metrics snapshot to %s\n", rc.metrics)
	}

	show := func(n int) bool { return rc.table == 0 || rc.table == n }

	if show(1) {
		fmt.Fprintln(stdout, "Table 1: SE ad campaign statistics")
		fmt.Fprint(stdout, seacma.FormatTable1(res.Table1()))
		fmt.Fprintln(stdout)
	}
	if show(2) {
		fmt.Fprintln(stdout, "Table 2: top 20 categories of SEACMA ad publisher sites")
		rows := res.Table2(20)
		cells := make([][]string, 0, len(rows))
		for _, r := range rows {
			cells = append(cells, []string{r.Category, fmt.Sprintf("%d", r.Count), fmt.Sprintf("%.2f", r.Percent)})
		}
		fmt.Fprint(stdout, formatSimple([]string{"Category", "# Publisher Domains", "% of Total"}, cells))
		fmt.Fprintln(stdout)
	}
	if show(3) {
		fmt.Fprintln(stdout, "Table 3: SE attacks from each ad network")
		fmt.Fprint(stdout, seacma.FormatTable3(res.Table3()))
		fmt.Fprintln(stdout)
	}
	if show(4) && res.Milking != nil {
		fmt.Fprintln(stdout, "Table 4: tracking SEACMA campaigns (milking)")
		fmt.Fprint(stdout, seacma.FormatTable4(res.Table4()))
		fmt.Fprintln(stdout)
	}

	if rc.table == 0 {
		fmt.Fprintln(stdout, "Scalars:")
		fmt.Fprintf(stdout, "  publishers crawled:        %d\n", len(res.PublisherHosts))
		fmt.Fprintf(stdout, "  crawl sessions:            %d\n", len(res.Sessions))
		fmt.Fprintf(stdout, "  clusters found:            %d\n", len(res.Discovery.Clusters))
		fmt.Fprintf(stdout, "  SE campaigns:              %d\n", len(res.Discovery.Campaigns()))
		fmt.Fprintf(stdout, "  benign clusters:           %d\n", len(res.Discovery.BenignClusters()))
		fmt.Fprintf(stdout, "  SE attack instances:       %d\n", res.SEAttackCount())
		if res.Milking != nil {
			fmt.Fprintf(stdout, "  milking sources:           %d\n", res.Milking.Sources)
			fmt.Fprintf(stdout, "  milking sessions:          %d\n", res.Milking.Sessions)
			fmt.Fprintf(stdout, "  fresh domains milked:      %d\n", len(res.Milking.Domains))
			fmt.Fprintf(stdout, "  binaries milked:           %d\n", len(res.Milking.Files))
			if lag := res.Milking.MeanGSBLag(); lag > 0 {
				fmt.Fprintf(stdout, "  mean GSB lag:              %.1f days\n", lag.Hours()/24)
			}
		}
		fmt.Fprintln(stdout, "  discovered ad networks:")
		for _, d := range res.DiscoverNewNetworks(5) {
			fmt.Fprintf(stdout, "    %-8s snippet var %-16q +%d publishers\n", d.PathToken, d.SnippetVar, len(d.Publishers))
		}
	}
	return nil
}

func formatSimple(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := ""
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				out += "  "
			}
			out += fmt.Sprintf("%-*s", widths[i], c)
		}
		out += "\n"
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return out
}
