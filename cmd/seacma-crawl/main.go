// Command seacma-crawl runs the discovery half of the pipeline: build a
// synthetic web, reverse the seed ad networks into a publisher pool,
// crawl it, cluster the landing-page screenshots and triage the clusters
// into SE campaigns.
//
//	seacma-crawl [-seed N] [-publishers N] [-scale F] [-max N] [-tiny] [-workers N] [-json] [-out sessions.jsonl] [-metrics out.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"repro"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/sessionio"
	"repro/internal/worldgen"
)

func main() {
	log.SetFlags(0)
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// crawlConfig is the assembled run configuration; split from flag
// parsing so tests can cover the -flag → config mapping.
type crawlConfig struct {
	cli.Flags
	exp     seacma.ExperimentConfig
	asJSON  bool
	outFile string
}

// parseFlags maps the command line onto a crawlConfig.
func parseFlags(args []string) (*crawlConfig, error) {
	fs := flag.NewFlagSet("seacma-crawl", flag.ContinueOnError)
	cc := &crawlConfig{}
	cc.Bind(fs)
	cc.BindMax(fs)
	var (
		publishers = fs.Int("publishers", 0, "seed publishers (0 = config default)")
		scale      = fs.Float64("scale", 1.0, "scale factor applied to the default world")
	)
	fs.BoolVar(&cc.asJSON, "json", false, "emit the campaign list as JSON")
	fs.StringVar(&cc.outFile, "out", "", "write the crawl sessions to this file (JSONL) for offline analysis with seacma-analyze")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if !(*scale > 0) || math.IsInf(*scale, 0) {
		return nil, fmt.Errorf("-scale must be a positive finite factor, got %v", *scale)
	}
	if *publishers < 0 {
		return nil, fmt.Errorf("-publishers must be >= 0 (0 = config default), got %d", *publishers)
	}

	cc.Spec.SkipMilking = true
	cfg, err := cc.Config()
	if err != nil {
		return nil, err
	}
	cfg.World = scaleWorld(cfg.World, *scale)
	if *publishers > 0 {
		cfg.World.SeedPublishers = *publishers
		cfg.World.NewNetPublishers = *publishers / 10
	}
	cc.exp = cfg
	return cc, nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	cc, err := parseFlags(args)
	if err != nil {
		return err
	}
	return cc.Profile(func() error { return crawl(ctx, cc, stdout, stderr) })
}

func crawl(ctx context.Context, cc *crawlConfig, stdout, stderr io.Writer) error {
	exp := seacma.NewExperiment(cc.exp)
	fmt.Fprintf(stderr, "world: %d publishers, %d campaigns; crawling...\n",
		len(exp.World.Publishers), len(exp.World.Campaigns))

	// The stream drops each session's log at commit; -out takes the
	// sessions, logs included, from the commit-order sink instead.
	opts := core.StreamOptions{SkipMilking: true}
	var out *sessionSink
	if cc.outFile != "" {
		sink, err := createSink(cc.outFile)
		if err != nil {
			return err
		}
		out, opts.OnSession = sink, sink.session
	}
	res, err := exp.Pipeline.RunStream(ctx, opts)
	if out != nil {
		if err == nil {
			err = out.close()
		}
		if err != nil {
			out.discard()
			return err
		}
		fmt.Fprintf(stderr, "wrote %d sessions to %s\n", len(res.Sessions), cc.outFile)
	}
	if err != nil {
		return err
	}

	if err := cc.WriteMetrics(cc.exp.Obs, stderr); err != nil {
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
	fmt.Fprint(stdout, seacma.FormatTable1(core.Table1(res.Discovery, exp.World.GSB, exp.World.Clock.Now())))
	return nil
}

// sessionSink streams committed sessions into a sessionio file. The
// header names the crawl's session count, which comes with every
// session.
type sessionSink struct {
	f   *os.File
	w   *sessionio.Writer
	err error
}

func createSink(path string) (*sessionSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &sessionSink{f: f}, nil
}

func (o *sessionSink) session(_, total int, s *crawler.Session) {
	if o.err == nil && o.w == nil {
		o.w, o.err = sessionio.NewWriter(o.f, total)
	}
	if o.err == nil {
		o.err = o.w.Write(s)
	}
}

// close finishes the file: it writes the header of an empty crawl,
// flushes, and reports the first write error.
func (o *sessionSink) close() error {
	if o.err == nil && o.w == nil {
		o.w, o.err = sessionio.NewWriter(o.f, 0)
	}
	if o.err != nil {
		return o.err
	}
	if err := o.w.Close(); err != nil {
		return err
	}
	return o.f.Close()
}

// discard closes and removes the file of a run that failed, so a
// truncated crawl never passes for crawl output. Only a regular file is
// removed: an -out naming a device or a pipe stays.
func (o *sessionSink) discard() {
	o.f.Close()
	if fi, err := os.Lstat(o.f.Name()); err == nil && fi.Mode().IsRegular() {
		os.Remove(o.f.Name())
	}
}

func scaleWorld(cfg worldgen.Config, f float64) worldgen.Config {
	if f == 1.0 {
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
