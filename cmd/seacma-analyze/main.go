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

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profiling"
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
	inFile     string
	params     core.DiscoveryParams
	metrics    string
	cpuProfile string
	memProfile string
}

// parseFlags maps the command line onto an analyzeConfig.
func parseFlags(args []string) (*analyzeConfig, error) {
	fs := flag.NewFlagSet("seacma-analyze", flag.ContinueOnError)
	var (
		inFile  = fs.String("in", "", "session file written by seacma-crawl -out (required)")
		eps     = fs.Float64("eps", 0.1, "DBSCAN eps over normalised dhash distance")
		minPts  = fs.Int("minpts", 3, "DBSCAN MinPts")
		minDoms = fs.Int("theta-c", 5, "minimum distinct e2LDs per campaign (θc)")
		metrics = fs.String("metrics", "", "write an observability snapshot (JSON) to this file")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write an allocation profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *inFile == "" {
		fs.Usage()
		return nil, fmt.Errorf("seacma-analyze: -in is required")
	}
	return &analyzeConfig{
		inFile: *inFile,
		params: core.DiscoveryParams{
			Cluster:    cluster.Params{Eps: *eps, MinPts: *minPts},
			MinDomains: *minDoms,
		},
		metrics:    *metrics,
		cpuProfile: *cpuProf,
		memProfile: *memProf,
	}, nil
}

func run(args []string, stdout, stderr io.Writer) (retErr error) {
	ac, err := parseFlags(args)
	if err != nil {
		return err
	}
	stopProf, err := profiling.Start(ac.cpuProfile, ac.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

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

	var reg *obs.Registry
	if ac.metrics != "" {
		reg = obs.New()
		ac.params.Obs = reg
	}
	disc, err := core.Discover(sessions, ac.params)
	if err != nil {
		return err
	}
	if err := reg.WriteFile(ac.metrics); err != nil {
		return err
	}
	if ac.metrics != "" {
		fmt.Fprintf(stderr, "wrote metrics snapshot to %s\n", ac.metrics)
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
