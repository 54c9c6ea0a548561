// Command seacma-analyze runs the offline half of the pipeline over a
// stored crawl: load sessions (written by seacma-crawl -out), cluster
// the landing-page hashes, triage the clusters, and print the campaign
// inventory — no synthetic web required.
//
//	seacma-crawl -tiny -out sessions.jsonl
//	seacma-analyze -in sessions.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sessionio"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// analyzeConfig is the assembled run configuration; split from flag
// parsing so tests can cover the -flag → config mapping.
type analyzeConfig struct {
	cli.Output
	inFile string
	params core.DiscoveryParams
}

// parseFlags maps the command line onto an analyzeConfig. The
// clustering flags are checked here, before -in is read, so a bad value
// fails at once instead of after the whole session file has loaded.
func parseFlags(args []string) (*analyzeConfig, error) {
	fs := flag.NewFlagSet("seacma-analyze", flag.ContinueOnError)
	ac := &analyzeConfig{}
	ac.Bind(fs)
	fs.StringVar(&ac.inFile, "in", "", "session file written by seacma-crawl -out (required)")
	fs.Float64Var(&ac.params.Cluster.Eps, "eps", 0.1, "DBSCAN eps over normalised dhash distance")
	fs.IntVar(&ac.params.Cluster.MinPts, "minpts", 3, "DBSCAN MinPts")
	fs.IntVar(&ac.params.MinDomains, "theta-c", 5, "minimum distinct e2LDs per campaign (θc)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if ac.inFile == "" {
		fs.Usage()
		return nil, fmt.Errorf("seacma-analyze: -in is required")
	}
	if err := ac.params.Cluster.Validate(); err != nil {
		bad := "-minpts"
		if (cluster.Params{Eps: ac.params.Cluster.Eps, MinPts: 1}).Validate() != nil {
			bad = "-eps"
		}
		return nil, fmt.Errorf("%s: %w", bad, err)
	}
	if ac.params.MinDomains < 0 {
		return nil, fmt.Errorf("-theta-c must be >= 0 (got %d)", ac.params.MinDomains)
	}
	return ac, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	ac, err := parseFlags(args)
	if err != nil {
		return err
	}
	return ac.Profile(func() error { return analyze(ac, stdout, stderr) })
}

func analyze(ac *analyzeConfig, stdout, stderr io.Writer) error {
	f, err := os.Open(ac.inFile)
	if err != nil {
		return err
	}
	sessions, err := sessionio.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	landings := 0
	for _, s := range sessions {
		landings += len(s.Landings)
	}
	fmt.Fprintf(stderr, "loaded %d sessions with %d landings\n", len(sessions), landings)

	ac.params.Obs = ac.Registry()
	disc, err := core.Discover(sessions, ac.params)
	if err != nil {
		return err
	}
	if err := ac.WriteMetrics(ac.params.Obs, stderr); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "clusters: %d (noise %d, below-θc %d)\n", len(disc.Clusters), disc.NoiseCount, disc.FilteredClusters)
	fmt.Fprintf(stdout, "SE campaigns: %d, benign: %d\n\n", len(disc.Campaigns()), len(disc.BenignClusters()))
	for _, c := range disc.Campaigns() {
		fmt.Fprintf(stdout, "campaign %3d  %-20s  %4d attacks  %3d domains  dhash %s\n",
			c.ID, c.Category.DisplayName(), c.AttackCount(disc.Observations), len(c.Domains), c.Rep)
		if len(c.Signals.ScamPhones) > 0 {
			fmt.Fprintf(stdout, "              scam phones: %v\n", c.Signals.ScamPhones)
		}
	}
	if len(disc.BenignClusters()) > 0 {
		fmt.Fprintln(stdout, "\nbenign clusters:")
		for _, c := range disc.BenignClusters() {
			fmt.Fprintf(stdout, "  cluster %3d  %4d pages  %3d domains  parked-score %.2f\n",
				c.ID, c.Signals.Pages, len(c.Domains), c.Signals.MeanParkedScore())
		}
	}
	return nil
}
