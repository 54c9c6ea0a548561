// Command seacma-crawl runs the discovery half of the pipeline: build a
// synthetic web, reverse the seed ad networks into a publisher pool,
// crawl it, cluster the landing-page screenshots and triage the clusters
// into SE campaigns.
//
//	seacma-crawl [-seed N] [-publishers N] [-scale F] [-max N] [-tiny] [-json] [-metrics out.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/sessionio"
	"repro/internal/worldgen"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// crawlConfig is the assembled run configuration; split from flag
// parsing so tests can cover the -flag → config mapping.
type crawlConfig struct {
	exp        seacma.ExperimentConfig
	asJSON     bool
	outFile    string
	metrics    string
	cpuProfile string
	memProfile string
}

// parseFlags maps the command line onto a crawlConfig.
func parseFlags(args []string) (*crawlConfig, error) {
	fs := flag.NewFlagSet("seacma-crawl", flag.ContinueOnError)
	var (
		seed       = fs.Int64("seed", 1, "world seed")
		publishers = fs.Int("publishers", 0, "seed publishers (0 = config default)")
		scale      = fs.Float64("scale", 1.0, "scale factor applied to the default world")
		maxPubs    = fs.Int("max", 0, "bound the crawl pool (0 = all)")
		tiny       = fs.Bool("tiny", false, "use the tiny smoke-test world")
		asJSON     = fs.Bool("json", false, "emit the campaign list as JSON")
		outFile    = fs.String("out", "", "write the crawl sessions to this file (JSONL) for offline analysis with seacma-analyze")
		metrics    = fs.String("metrics", "", "write an observability snapshot (JSON) to this file")
		workers    = fs.Int("workers", 0, "worker count for the crawl farm (0 = per-stage default; output is identical for any value)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write an allocation profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	cfg := seacma.DefaultExperimentConfig()
	if *tiny {
		cfg = seacma.QuickExperimentConfig()
	}
	cfg.SkipMilking = true
	if *workers > 0 {
		cfg.SetWorkers(*workers)
	}
	cfg.World.Seed = *seed
	cfg.World = scaleWorld(cfg.World, *scale)
	if *publishers > 0 {
		cfg.World.SeedPublishers = *publishers
		cfg.World.NewNetPublishers = *publishers / 10
	}
	cfg.MaxPublishers = *maxPubs
	if *metrics != "" {
		cfg.Obs = obs.New()
	}
	return &crawlConfig{
		exp: cfg, asJSON: *asJSON, outFile: *outFile, metrics: *metrics,
		cpuProfile: *cpuProfile, memProfile: *memProfile,
	}, nil
}

func run(args []string, stdout, stderr io.Writer) (retErr error) {
	cc, err := parseFlags(args)
	if err != nil {
		return err
	}
	stopProf, err := profiling.Start(cc.cpuProfile, cc.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	exp := seacma.NewExperiment(cc.exp)
	fmt.Fprintf(stderr, "world: %d publishers, %d campaigns; crawling...\n",
		len(exp.World.Publishers), len(exp.World.Campaigns))

	res, err := exp.Run()
	if err != nil {
		return err
	}

	if cc.outFile != "" {
		f, err := os.Create(cc.outFile)
		if err != nil {
			return err
		}
		if err := sessionio.Write(f, res.Sessions); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d sessions to %s\n", len(res.Sessions), cc.outFile)
	}

	if err := writeMetrics(cc.exp.Obs, cc.metrics, stderr); err != nil {
		return err
	}

	if cc.asJSON {
		type campaignJSON struct {
			ID       int      `json:"id"`
			Category string   `json:"category"`
			Attacks  int      `json:"attacks"`
			Domains  []string `json:"domains"`
		}
		var out []campaignJSON
		for _, c := range res.Discovery.Campaigns() {
			out = append(out, campaignJSON{
				ID:       c.ID,
				Category: string(c.Category),
				Attacks:  c.AttackCount(res.Discovery.Observations),
				Domains:  c.Domains,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	fmt.Fprintf(stdout, "crawled %d publishers (%d sessions)\n", len(res.PublisherHosts), len(res.Sessions))
	fmt.Fprintf(stdout, "clusters: %d -> %d SE campaigns, %d benign, %d below θc\n",
		len(res.Discovery.Clusters), len(res.Discovery.Campaigns()),
		len(res.Discovery.BenignClusters()), res.Discovery.FilteredClusters)
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, seacma.FormatTable1(res.Table1()))
	return nil
}

// writeMetrics dumps the registry snapshot to path (no-op when either
// is unset). Shared shape across the seacma binaries.
func writeMetrics(reg *obs.Registry, path string, stderr io.Writer) error {
	if reg == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote metrics snapshot to %s\n", path)
	return nil
}

func scaleWorld(cfg worldgen.Config, f float64) worldgen.Config {
	if f == 1.0 || f <= 0 {
		return cfg
	}
	cfg.SeedPublishers = int(float64(cfg.SeedPublishers) * f)
	cfg.NewNetPublishers = int(float64(cfg.NewNetPublishers) * f)
	cfg.Advertisers = int(float64(cfg.Advertisers) * f)
	if cfg.SeedPublishers < 50 {
		cfg.SeedPublishers = 50
	}
	if cfg.NewNetPublishers < 5 {
		cfg.NewNetPublishers = 5
	}
	if cfg.Advertisers < 20 {
		cfg.Advertisers = 20
	}
	return cfg
}
