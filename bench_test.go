package seacma

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md §5 for the experiment index).
//
//	go test -bench=. -benchmem
//
// The expensive part — one full default-scale pipeline run (crawl 990
// publishers with 4 UAs, cluster, attribute, milk 300 sources for 14
// virtual days) — is executed once and shared by the table benches; each
// bench then measures the table/figure regeneration itself and reports
// the headline quantities as custom metrics. Tables are printed to
// stderr once so a bench run reproduces the paper's rows verbatim.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/adblock"
	"repro/internal/adnet"
	"repro/internal/adscript"
	"repro/internal/browser"
	"repro/internal/btgraph"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/phash"
	"repro/internal/rng"
	"repro/internal/screenshot"
	"repro/internal/secamp"
	"repro/internal/urlx"
	"repro/internal/vclock"
	"repro/internal/webtx"
	"repro/internal/worldgen"
)

var (
	benchOnce sync.Once
	benchExp  *Experiment
	benchRes  *Result
	// benchLogs are the instrumentation logs of the run's sessions with
	// a hashed landing (the streamed crawl keeps none in Sessions).
	benchLogs map[int][]browser.Event
	benchErr  error
)

// getBenchRun returns the shared default-scale pipeline run.
func getBenchRun(b *testing.B) (*Experiment, *Result) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := DefaultExperimentConfig()
		cfg.Milker.MaxSources = 300 // the paper tracked 505 (URL, UA) pairs
		fmt.Fprintln(os.Stderr, "bench: building default-scale world and running the full pipeline once (minutes)...")
		start := time.Now()
		benchExp = NewExperiment(cfg)
		benchRes, benchLogs, benchErr = benchExp.runKeepingLogs(context.Background())
		fmt.Fprintf(os.Stderr, "bench: pipeline run completed in %v\n", time.Since(start).Round(time.Second))
	})
	if benchErr != nil {
		b.Fatalf("bench pipeline: %v", benchErr)
	}
	return benchExp, benchRes
}

var printOnce sync.Map

func printTable(name, text string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Fprintf(os.Stderr, "\n=== %s ===\n%s", name, text)
	}
}

// BenchmarkTable1_CampaignStats regenerates Table 1 (SE ad campaign
// statistics per category with GSB coverage).
func BenchmarkTable1_CampaignStats(b *testing.B) {
	exp, res := getBenchRun(b)
	var rows []Table1Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.Table1(res.Discovery, exp.World.GSB, exp.World.Clock.Now())
	}
	b.StopTimer()
	printTable("Table 1", FormatTable1(rows))
	var attacks, domains, campaigns int
	for _, r := range rows {
		attacks += r.SEAttacks
		domains += r.AttackDomains
		campaigns += r.Campaigns
	}
	b.ReportMetric(float64(attacks), "se-attacks")
	b.ReportMetric(float64(domains), "attack-domains")
	b.ReportMetric(float64(campaigns), "campaigns")
}

// BenchmarkTable2_PublisherCategories regenerates Table 2 (top 20
// categories of SEACMA-hosting publishers).
func BenchmarkTable2_PublisherCategories(b *testing.B) {
	exp, res := getBenchRun(b)
	var rows []struct {
		Category string
		Count    int
		Percent  float64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := core.Table2(res.Discovery, res.Sessions, exp.World.Webcat, 20)
		rows = rows[:0]
		for _, r := range got {
			rows = append(rows, struct {
				Category string
				Count    int
				Percent  float64
			}{r.Category, r.Count, r.Percent})
		}
	}
	b.StopTimer()
	text := ""
	for _, r := range rows {
		text += fmt.Sprintf("%-28s %6d  %5.2f%%\n", r.Category, r.Count, r.Percent)
	}
	printTable("Table 2", text)
	b.ReportMetric(float64(len(rows)), "categories")
	b.ReportMetric(float64(core.SEACMAPublisherCount(res.Discovery, res.Sessions)), "seacma-publishers")
}

// BenchmarkTable3_AdNetworkAttribution regenerates Table 3 (SE attacks
// from each ad network, including the Unknown row).
func BenchmarkTable3_AdNetworkAttribution(b *testing.B) {
	exp, res := getBenchRun(b)
	patterns := core.PatternSetFromSeeds(exp.Pipeline.Cfg.Seeds)
	var rows []Table3Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.Table3(res.Attributions, patterns, res.IsSE)
	}
	b.StopTimer()
	printTable("Table 3", FormatTable3(rows))
	over50 := 0
	var unknown float64
	for _, r := range rows {
		if r.SERatePct > 50 {
			over50++
		}
		if r.Network == core.UnknownNetwork {
			unknown = float64(r.SEAttackPages)
		}
	}
	b.ReportMetric(float64(over50), "networks-over-50pct-se")
	b.ReportMetric(unknown, "unknown-se-pages")
}

// BenchmarkTable4_Milking regenerates Table 4 (milking: per-category
// domain harvest with GSB-init/GSB-final rates) and the >7-day-lag
// headline.
func BenchmarkTable4_Milking(b *testing.B) {
	_, res := getBenchRun(b)
	var rows []Table4Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.Table4(res.Milking)
	}
	b.StopTimer()
	printTable("Table 4", FormatTable4(rows))
	for _, r := range rows {
		if r.Category == "total" {
			b.ReportMetric(float64(r.Domains), "milked-domains")
			b.ReportMetric(r.GSBInitPct, "gsb-init-pct")
			b.ReportMetric(r.GSBFinalPct, "gsb-final-pct")
		}
	}
	b.ReportMetric(res.Milking.MeanGSBLag().Hours()/24, "mean-gsb-lag-days")
	b.ReportMetric(float64(res.Milking.Sessions), "milking-sessions")
}

// BenchmarkFigure1_TransparentAdFlow reproduces Figure 1: a click
// anywhere on a publisher page (transparent overlay ad) opens a popup
// that redirects to an SE attack.
func BenchmarkFigure1_TransparentAdFlow(b *testing.B) {
	w := worldgen.Build(worldgen.TinyConfig())
	farm := crawler.New(w.Internet, w.Clock, crawler.Config{Workers: 1, FetchCost: time.Second})
	task := crawler.Task{Host: w.Publishers[0].Host, ClientIP: webtx.IPResidential}
	b.ResetTimer()
	landings := 0
	for i := 0; i < b.N; i++ {
		s := farm.RunSession(task, webtx.UAChromeMac)
		landings += len(s.Landings)
	}
	b.StopTimer()
	b.ReportMetric(float64(landings)/float64(b.N), "landings-per-session")
}

// BenchmarkFigure2_PipelineEndToEnd runs the whole Figure 2 system on a
// tiny world (the architecture smoke bench).
func BenchmarkFigure2_PipelineEndToEnd(b *testing.B) { benchFigure2(b, 0) }

// Worker-count variants of the e2e bench for the EXPERIMENTS.md
// parallel-speedup table.
func BenchmarkFigure2_PipelineEndToEnd_W1(b *testing.B) { benchFigure2(b, 1) }
func BenchmarkFigure2_PipelineEndToEnd_W2(b *testing.B) { benchFigure2(b, 2) }
func BenchmarkFigure2_PipelineEndToEnd_W4(b *testing.B) { benchFigure2(b, 4) }
func BenchmarkFigure2_PipelineEndToEnd_W8(b *testing.B) { benchFigure2(b, 8) }

func benchFigure2(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := QuickExperimentConfig()
		cfg.World.Seed = int64(100 + i)
		if workers > 0 {
			cfg.SetWorkers(workers)
		}
		res, err := NewExperiment(cfg).Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Discovery.Campaigns()) == 0 {
			b.Fatal("no campaigns")
		}
	}
}

// BenchmarkMilking_W* measures only the tracking (milking) stage at a
// given engine worker count; the world build, crawl and discovery that
// produce the milking sources run outside the timer. One row per worker
// count feeds the EXPERIMENTS.md parallel-speedup table.
func BenchmarkMilking_W1(b *testing.B) { benchMilking(b, 1) }
func BenchmarkMilking_W2(b *testing.B) { benchMilking(b, 2) }
func BenchmarkMilking_W4(b *testing.B) { benchMilking(b, 4) }
func BenchmarkMilking_W8(b *testing.B) { benchMilking(b, 8) }

func benchMilking(b *testing.B, workers int) {
	b.Helper()
	domains := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := worldgen.TinyConfig()
		cfg.Seed = int64(100 + i)
		w := worldgen.Build(cfg)
		p := core.NewPipeline(core.PipelineConfig{
			Seeds:     SeedsFromSpecs(w),
			Crawler:   crawler.Config{Workers: 1},
			Discovery: core.PaperDiscoveryParams,
			Milker: core.MilkerConfig{
				Duration:   2 * 24 * time.Hour,
				GSBExtra:   2 * 24 * time.Hour,
				MaxSources: 60,
				Workers:    workers,
			},
		}, w.Internet, w.Clock, w.Search, w.GSB, w.VT, w.Webcat)
		_, byHost := p.Reverse()
		sessions := p.Crawl(byHost)
		disc, err := p.Discover(sessions)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_, milk, err := p.Milk(sessions, disc)
		if err != nil {
			b.Fatal(err)
		}
		domains += len(milk.Domains)
	}
	b.ReportMetric(float64(domains)/float64(b.N), "milked-domains")
}

// BenchmarkFigure3_BacktrackingGraph measures reconstructing ad-loading
// graphs from instrumentation logs and prints one (the Figure 3 chain).
func BenchmarkFigure3_BacktrackingGraph(b *testing.B) {
	_, res := getBenchRun(b)
	// Pick a session with an SE landing.
	var events []browser.Event
	target := ""
	for _, a := range res.Attributions {
		if res.IsSE(a.Ref) {
			events = benchLogs[a.Ref.Session]
			target = a.URL
			break
		}
	}
	if target == "" {
		b.Fatal("no SE landing in bench run")
	}
	var g *btgraph.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = btgraph.FromEvents(events)
		if _, err := g.BacktrackPath(target); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("Figure 3 (backtracking graph)", g.Render(target))
	b.ReportMetric(float64(g.EdgeCount()), "edges")
}

// BenchmarkFigure4_MilkingRotation milks one campaign's upstream URL
// across rotations and verifies the stable URL pattern behind changing
// domains.
func BenchmarkFigure4_MilkingRotation(b *testing.B) {
	clock := vclock.New()
	internet := webtx.NewInternet()
	camp := secamp.New("fig4", secamp.TechSupport, 0,
		secamp.Config{RotationPeriod: time.Hour, Slots: 2, TTLFactor: 3, TDSCount: 1},
		clock, rng.New(4), nil)
	camp.Install(internet)
	src := urlx.MustParse(camp.EntryURL())
	b.ResetTimer()
	domains := map[string]bool{}
	for i := 0; i < b.N; i++ {
		resp, err := internet.RoundTrip(&webtx.Request{URL: src, UserAgent: webtx.UAChromeMac, ClientIP: webtx.IPResidential, Time: clock.Now()})
		if err != nil || !resp.Redirect() {
			b.Fatal("milk failed")
		}
		domains[urlx.MustParse(resp.Location).Host] = true
		clock.Advance(15 * time.Minute)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(domains)), "distinct-domains")
}

// BenchmarkFigure5_CampaignScreenshots renders one exemplar screenshot
// per Figure 5 category (fake software, tech support, lottery).
func BenchmarkFigure5_CampaignScreenshots(b *testing.B) {
	cats := []secamp.Category{secamp.FakeSoftware, secamp.TechSupport, secamp.Lottery}
	src := rng.New(5)
	var tmpls []secamp.Template
	for i, c := range cats {
		tmpls = append(tmpls, secamp.NewTemplate(c, i, src))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range tmpls {
			doc := t.BuildDoc("http://x.club/l", uint64(i))
			img := screenshot.Render(doc, screenshot.Options{})
			_ = phash.DHash(img)
		}
	}
}

// BenchmarkFigure6_AttackGallery renders the full Appendix A gallery —
// every SE category including the push-notification lure — and checks
// the categories stay perceptually separated.
func BenchmarkFigure6_AttackGallery(b *testing.B) {
	src := rng.New(6)
	var tmpls []secamp.Template
	for i, c := range secamp.AllCategories {
		tmpls = append(tmpls, secamp.NewTemplate(c, i, src))
	}
	var hashes []phash.Hash
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashes = hashes[:0]
		for _, t := range tmpls {
			doc := t.BuildDoc("http://x.club/l", 7)
			hashes = append(hashes, phash.DHash(screenshot.Render(doc, screenshot.Options{})))
		}
	}
	b.StopTimer()
	minDist := phash.Bits
	for i := 0; i < len(hashes); i++ {
		for j := i + 1; j < len(hashes); j++ {
			if d := phash.Distance(hashes[i], hashes[j]); d < minDist {
				minDist = d
			}
		}
	}
	b.ReportMetric(float64(minDist), "min-intercategory-bits")
}

// BenchmarkCapturePath_Cold measures one uncached capture — paint-list
// walk, pooled render, fused noise+luminance dual-grid hash — per
// iteration. This is what every cache miss costs.
func BenchmarkCapturePath_Cold(b *testing.B) {
	tmpl := secamp.NewTemplate(secamp.FakeSoftware, 0, rng.New(8))
	doc := tmpl.BuildDoc("http://x.club/l", 1)
	opts := screenshot.Options{Noise: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.NoiseSeed = uint64(i) | 1 // distinct stream per iteration: never memoizable
		_ = screenshot.CaptureHash(doc, opts)
	}
}

// BenchmarkCapturePath_Warm measures a memoized capture: fingerprint
// the document, hit the content-addressed cache, return the stored
// hash. This is what repeat captures (milking revisits, same-template
// publishers) cost with the cache on.
func BenchmarkCapturePath_Warm(b *testing.B) {
	tmpl := secamp.NewTemplate(secamp.FakeSoftware, 0, rng.New(8))
	doc := tmpl.BuildDoc("http://x.club/l", 1)
	opts := screenshot.Options{Noise: true, NoiseSeed: 42}
	cache := screenshot.NewCache(0, nil)
	cache.Hash(doc, opts) // prime: the single miss
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cache.Hash(doc, opts)
	}
	b.StopTimer()
	hits, misses, _ := cache.Stats()
	b.ReportMetric(100*float64(hits)/float64(hits+misses), "cache-hit-pct")
}

// BenchmarkHashKernel_Naive measures the retained reference hash path —
// clone, mutate with Noise, grayscale, box-filter twice — on a
// default-viewport attack capture. This is the cost the fused kernel
// replaces (and the oracle the property tests compare it against).
func BenchmarkHashKernel_Naive(b *testing.B) {
	tmpl := secamp.NewTemplate(secamp.FakeSoftware, 0, rng.New(8))
	img := screenshot.Render(tmpl.BuildDoc("http://x.club/l", 1), screenshot.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := img.Clone()
		n.Noise(uint64(i) | 1)
		_ = phash.DHash(n)
	}
}

// BenchmarkHashKernel_Fused measures the fused single-pass kernel on
// the same capture: inline xorshift noise + Rec.601 luminance + both
// dual-grid accumulations, no intermediate buffers. A distinct seed
// per iteration measures the steady-state cold-capture cost.
func BenchmarkHashKernel_Fused(b *testing.B) {
	tmpl := secamp.NewTemplate(secamp.FakeSoftware, 0, rng.New(8))
	img := screenshot.Render(tmpl.BuildDoc("http://x.club/l", 1), screenshot.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = phash.DHashNoisy(img, true, uint64(i)|1)
	}
}

// BenchmarkHashKernel_Fused256x192 runs the fused kernel at the size the
// crawler and milker actually capture: their ViewportScale of 4 turns
// the 1024×768 viewport into a 256×192 capture.
func BenchmarkHashKernel_Fused256x192(b *testing.B) {
	tmpl := secamp.NewTemplate(secamp.FakeSoftware, 0, rng.New(8))
	img := screenshot.Render(tmpl.BuildDoc("http://x.club/l", 1), screenshot.Options{Width: 256, Height: 192})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = phash.DHashNoisy(img, true, uint64(i)|1)
	}
}

// benchScriptSource builds a representative obfuscated ad script — the
// adnet serve-script shape: overlay install, dec() of an encoded click
// URL, a byte-wise transform loop, closures registered and dispatched.
func benchScriptSource() string {
	const key = 37
	enc := adscript.EncodeString("http://trk-a1.club/tok-c/click.js?z=3", key)
	return fmt.Sprintf(`
		document.addOverlay("__ovl_bench", 99999);
		let url = dec(%q, %d);
		let sum = 0;
		let i = 0;
		while (i < len(url)) {
			sum = (sum + charCodeAt(url, i)) %% 251;
			i = i + 1;
		}
		let _n = 0;
		let fire = function() {
			window.open(url);
			_n = _n + 1;
		};
		window.addEventListener("click", fire);
		fire();
		fire();
	`, enc, key)
}

// scriptBenchHost stubs the host objects the corpus scripts touch (the
// browser installs the real ones per page load); the stubs are built
// once so the benches measure the script path, not object construction.
type scriptBenchHost struct{ win, doc, nav *adscript.Object }

func newScriptBenchHost() scriptBenchHost {
	sink := func(name string) *adscript.HostFunc {
		return &adscript.HostFunc{Name: name, Fn: func(args []adscript.Value) (adscript.Value, error) { return nil, nil }}
	}
	return scriptBenchHost{
		win: adscript.NewObject().
			Set("addEventListener", sink("window.addEventListener")).
			Set("open", sink("window.open")),
		doc: adscript.NewObject().
			Set("addOverlay", sink("document.addOverlay")).
			Set("loadScript", sink("document.loadScript")),
		nav: adscript.NewObject().Set("webdriver", false),
	}
}

func (h scriptBenchHost) install(in *adscript.Interp) {
	in.Globals.Define("window", h.win)
	in.Globals.Define("document", h.doc)
	in.Globals.Define("navigator", h.nav)
}

// BenchmarkScriptPath_Cold measures the parse-per-run path: every
// iteration lexes, parses and executes the script on a fresh
// interpreter. This is what every program-cache miss costs.
func BenchmarkScriptPath_Cold(b *testing.B) {
	src := benchScriptSource()
	host := newScriptBenchHost()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := adscript.NewInterp()
		host.install(in)
		if err := in.RunSource(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScriptPath_Warm measures the compile-once fast path: the
// program is cached after the first Get, and each iteration resets a
// reused per-tab interpreter and executes the shared Program — the
// browser's steady state across a crawl plus milking run.
func BenchmarkScriptPath_Warm(b *testing.B) {
	src := benchScriptSource()
	host := newScriptBenchHost()
	cache := adscript.NewProgramCache(0, nil)
	in := adscript.NewInterp()
	host.install(in)
	if err := in.RunCached(cache, src); err != nil { // prime: the single miss
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Reset()
		host.install(in)
		if err := in.RunCached(cache, src); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	hits, misses, _ := cache.Stats()
	b.ReportMetric(100*float64(hits)/float64(hits+misses), "script-cache-hit-pct")
}

// BenchmarkScalars_ClusterTriage reports the Section 4.3 triage scalars:
// total clusters, SE campaigns, benign clusters (paper: 130 -> 108 + 22).
func BenchmarkScalars_ClusterTriage(b *testing.B) {
	_, res := getBenchRun(b)
	var disc *core.DiscoveryResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		disc, err = core.Discover(res.Sessions, core.PaperDiscoveryParams)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(disc.Clusters)), "clusters")
	b.ReportMetric(float64(len(disc.Campaigns())), "se-campaigns")
	b.ReportMetric(float64(len(disc.BenignClusters())), "benign-clusters")
	b.ReportMetric(float64(disc.DistanceCalls), "distance-calls")
}

// BenchmarkScalars_AdblockEvasion reproduces the Section 4.4 AdBlock
// test: of the 11 seed networks, only the static-domain one is blocked
// by an EasyList-style filter.
func BenchmarkScalars_AdblockEvasion(b *testing.B) {
	src := rng.New(7)
	var nets []*adnet.Network
	for _, spec := range adnet.SeedSpecs() {
		nets = append(nets, adnet.New(spec, src))
	}
	blocked := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filter := adblock.EasyListLike()
		blocked = 0
		for _, n := range nets {
			hit := false
			for _, d := range n.ScriptDomains {
				if filter.Match(urlx.MustParse("http://" + d + "/x/serve.js")) {
					hit = true
					break
				}
			}
			if hit {
				blocked++
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(blocked), "networks-blocked")
}

// BenchmarkScalars_MilkedBinaries reports the Section 4.5 file scalars:
// previously-known fraction, post-rescan malicious fraction, >=15-AV
// fraction.
func BenchmarkScalars_MilkedBinaries(b *testing.B) {
	_, res := getBenchRun(b)
	files := res.Milking.Files
	if len(files) == 0 {
		b.Fatal("no milked files")
	}
	var known, mal, strong int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		known, mal, strong = 0, 0, 0
		for _, f := range files {
			if f.Known {
				known++
			}
			if f.Final.Malicious() {
				mal++
			}
			if f.Final.Positives >= 15 {
				strong++
			}
		}
	}
	b.StopTimer()
	n := float64(len(files))
	b.ReportMetric(n, "files")
	b.ReportMetric(100*float64(known)/n, "prev-known-pct")
	b.ReportMetric(100*float64(mal)/n, "malicious-pct")
	b.ReportMetric(100*float64(strong)/n, "ge15av-pct")
}

// BenchmarkScalars_NewAdNetworkDiscovery reproduces Section 4.4's
// unknown-log analysis: recover the three unseeded networks and the
// publisher expansion.
func BenchmarkScalars_NewAdNetworkDiscovery(b *testing.B) {
	_, res := getBenchRun(b)
	var found []core.DiscoveredNetwork
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found = res.DiscoverNewNetworks(5)
	}
	b.StopTimer()
	pubs := map[string]bool{}
	for _, d := range found {
		for _, p := range d.Publishers {
			pubs[p] = true
		}
	}
	b.ReportMetric(float64(len(found)), "networks-discovered")
	b.ReportMetric(float64(len(pubs)), "publishers-expanded")
}

// BenchmarkScalars_AdvertiserCost reproduces the Section 6 ethics
// accounting at a $4 CPM: worst-case and mean advertiser cost.
func BenchmarkScalars_AdvertiserCost(b *testing.B) {
	_, res := getBenchRun(b)
	var costs []core.AdvertiserCost
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		costs = core.EstimateAdvertiserCosts(res.Sessions, res.IsSEDomain, 4.0)
	}
	b.StopTimer()
	if len(costs) == 0 {
		b.Fatal("no advertiser costs")
	}
	var total float64
	for _, c := range costs {
		total += c.CostUSD
	}
	b.ReportMetric(costs[0].CostUSD, "worst-case-usd")
	b.ReportMetric(total/float64(len(costs)), "mean-usd")
}
