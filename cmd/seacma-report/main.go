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
	"repro/internal/cli"
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
	cli.Flags
	exp      seacma.ExperimentConfig
	table    int
	jsonFile string
}

// parseFlags maps the command line onto a reportConfig.
func parseFlags(args []string) (*reportConfig, error) {
	fs := flag.NewFlagSet("seacma-report", flag.ContinueOnError)
	rc := &reportConfig{}
	rc.Bind(fs)
	fs.IntVar(&rc.table, "table", 0, "print only this table (1-4); 0 = everything")
	fs.StringVar(&rc.jsonFile, "json", "", "also write the full machine-readable report to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if rc.table < 0 || rc.table > 4 {
		return nil, fmt.Errorf("-table must be in [0,4] (got %d)", rc.table)
	}

	// Tables 1-3 need no milking.
	rc.Spec.SkipMilking = rc.table >= 1 && rc.table <= 3
	cfg, err := rc.Config()
	if err != nil {
		return nil, err
	}
	rc.exp = cfg
	return rc, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	rc, err := parseFlags(args)
	if err != nil {
		return err
	}
	return rc.Profile(func() error { return report(rc, stdout, stderr) })
}

func report(rc *reportConfig, stdout, stderr io.Writer) error {
	exp := seacma.NewExperiment(rc.exp)
	fmt.Fprintf(stderr, "running pipeline on seed %d...\n", rc.exp.World.Seed)
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

	if err := rc.WriteMetrics(rc.exp.Obs, stderr); err != nil {
		return err
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
