package seacma

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

var (
	e2eOnce sync.Once
	e2eRes  *Result
	e2eExp  *Experiment
	e2eErr  error
)

func quickRun(t *testing.T) (*Experiment, *Result) {
	t.Helper()
	e2eOnce.Do(func() {
		e2eExp = NewExperiment(QuickExperimentConfig())
		e2eRes, e2eErr = e2eExp.Run()
	})
	if e2eErr != nil {
		t.Fatalf("quick run: %v", e2eErr)
	}
	return e2eExp, e2eRes
}

func TestSeedsFromSpecsAreEleven(t *testing.T) {
	exp, _ := quickRun(t)
	seeds := SeedsFromSpecs(exp.World)
	if len(seeds) != 11 {
		t.Fatalf("seeds = %d, the paper starts from 11", len(seeds))
	}
	if SeedSpecCount() != 11 {
		t.Fatalf("SeedSpecCount = %d", SeedSpecCount())
	}
	for _, s := range seeds {
		if s.Name == "" || s.SearchSnippet == "" || len(s.Patterns) == 0 {
			t.Fatalf("incomplete seed %+v", s)
		}
	}
}

func TestEndToEndProducesAllStages(t *testing.T) {
	_, res := quickRun(t)
	if len(res.PublisherHosts) == 0 || len(res.Sessions) == 0 {
		t.Fatal("crawl stage empty")
	}
	if res.Discovery == nil || len(res.Discovery.Campaigns()) == 0 {
		t.Fatal("no campaigns discovered")
	}
	if len(res.Attributions) == 0 {
		t.Fatal("no attributions")
	}
	if res.Milking == nil || len(res.Milking.Domains) == 0 {
		t.Fatal("milking empty")
	}
}

func TestTablesRender(t *testing.T) {
	_, res := quickRun(t)
	t1 := res.Table1()
	if len(t1) == 0 {
		t.Fatal("Table 1 empty")
	}
	if s := FormatTable1(t1); !strings.Contains(s, "GSB") {
		t.Fatal("Table 1 text broken")
	}
	t2 := res.Table2(20)
	if len(t2) == 0 || t2[0].Count == 0 {
		t.Fatal("Table 2 empty")
	}
	t3 := res.Table3()
	if len(t3) == 0 {
		t.Fatal("Table 3 empty")
	}
	if s := FormatTable3(t3); !strings.Contains(s, "Ad network") {
		t.Fatal("Table 3 text broken")
	}
	t4 := res.Table4()
	if len(t4) == 0 {
		t.Fatal("Table 4 empty")
	}
	if s := FormatTable4(t4); !strings.Contains(s, "GSB-final") {
		t.Fatal("Table 4 text broken")
	}
}

func TestSkipMilking(t *testing.T) {
	cfg := QuickExperimentConfig()
	cfg.World.Seed = 77
	cfg.SkipMilking = true
	cfg.MaxPublishers = 40
	exp := NewExperiment(cfg)
	res, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Milking != nil {
		t.Fatal("milking ran despite SkipMilking")
	}
	if res.Table4() != nil {
		t.Fatal("Table4 should be nil without milking")
	}
	if res.Discovery == nil {
		t.Fatal("discovery missing")
	}
}

func TestDiscoverNewNetworksViaFacade(t *testing.T) {
	_, res := quickRun(t)
	found := res.DiscoverNewNetworks(3)
	tokens := map[string]bool{}
	for _, d := range found {
		tokens[d.PathToken] = true
	}
	for _, want := range []string{"eroa", "ylx", "adctr"} {
		if !tokens[want] {
			t.Errorf("network token %q not discovered (have %v)", want, tokens)
		}
	}
}

func TestIsSEConsistency(t *testing.T) {
	_, res := quickRun(t)
	seen := 0
	for _, a := range res.Attributions {
		if res.IsSE(a.Ref) {
			seen++
			// SE landings' e2LDs are SE domains.
			l := res.Sessions[a.Ref.Session].Landings[a.Ref.Landing]
			if !res.IsSEDomain(l.E2LD) {
				t.Fatalf("SE landing %s not an SE domain", l.E2LD)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no SE attributions")
	}
	if res.SEAttackCount() < seen {
		t.Fatalf("SEAttackCount %d < observed %d", res.SEAttackCount(), seen)
	}
}

func TestMilkingShape(t *testing.T) {
	_, res := quickRun(t)
	m := res.Milking
	if m.Sessions == 0 || m.Sources == 0 {
		t.Fatal("degenerate milking")
	}
	// The tracking property the paper leans on: milked domains are
	// overwhelmingly never-before-seen (fresh rotation output).
	crawlDomains := map[string]bool{}
	for _, s := range res.Sessions {
		for _, l := range s.Landings {
			crawlDomains[l.E2LD] = true
		}
	}
	fresh := 0
	for _, d := range m.Domains {
		if !crawlDomains[d.Host] {
			fresh++
		}
	}
	if frac := float64(fresh) / float64(len(m.Domains)); frac < 0.8 {
		t.Fatalf("only %.0f%% of milked domains are new", frac*100)
	}
}

func TestGSBLagShape(t *testing.T) {
	_, res := quickRun(t)
	// With the quick window lags are bounded by the polling horizon; at
	// minimum they must be non-negative and under the window.
	window := e2eExp.Cfg.Milker.Duration + e2eExp.Cfg.Milker.GSBExtra
	for _, lag := range res.Milking.GSBLags() {
		if lag < 0 || lag > window+24*time.Hour {
			t.Fatalf("implausible lag %v", lag)
		}
	}
}

func TestCategoryTaxonomy(t *testing.T) {
	if len(core.AllSECategories) != 6 {
		t.Fatal("taxonomy drifted")
	}
	names := map[string]bool{}
	for _, c := range core.AllSECategories {
		names[c.DisplayName()] = true
	}
	for _, want := range []string{"Fake Software", "Registration", "Lottery/Gift", "Chrome Notifications", "Scareware", "Technical Support"} {
		if !names[want] {
			t.Fatalf("missing display name %q", want)
		}
	}
}

func TestDeterministicExperiments(t *testing.T) {
	cfg := QuickExperimentConfig()
	cfg.World.Seed = 99
	cfg.SkipMilking = true
	cfg.MaxPublishers = 20
	a, err := NewExperiment(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewExperiment(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.PublisherHosts) != len(b.PublisherHosts) {
		t.Fatal("publisher pools differ across identical seeds")
	}
}

func TestExportDataset(t *testing.T) {
	sum := quickExport(t).sum
	if sum.Campaigns == 0 || sum.Domains == 0 || sum.SessionLogs == 0 {
		t.Fatalf("summary = %+v", sum)
	}
	// At least some campaigns should still be reachable for screenshots
	// (ephemeral ones may be gone by now).
	if sum.Screenshots == 0 {
		t.Fatal("no exemplar screenshots captured")
	}
}

func TestMeasureEnrichment(t *testing.T) {
	_, res := quickRun(t)
	out := res.MeasureEnrichment(30*time.Minute, 12*time.Hour, 10)
	if out.Visits == 0 {
		t.Fatal("no victim traffic replayed")
	}
	if out.EnrichedRate() < out.GSBRate() {
		t.Fatal("enrichment reduced protection")
	}
	// The paper's defensive thesis: the milking feed protects the large
	// majority of visits the lagging blacklist misses.
	if out.EnrichedRate() < 0.5 {
		t.Fatalf("enriched rate only %.2f", out.EnrichedRate())
	}
	if out.GSBRate() > 0.3 {
		t.Fatalf("baseline GSB rate implausibly high: %.2f", out.GSBRate())
	}
	// Without milking the measurement degrades gracefully.
	empty := &Result{RunResult: &core.RunResult{}, exp: e2eExp}
	if got := empty.MeasureEnrichment(0, 0, 0); got.Visits != 0 {
		t.Fatal("enrichment without milking produced traffic")
	}
}

func TestScamPhoneBlacklistHarvested(t *testing.T) {
	_, res := quickRun(t)
	bl := res.ScamPhoneBlacklist()
	if bl == nil {
		t.Fatal("no phone blacklist")
	}
	if bl.Len() == 0 {
		t.Fatal("no scam phone numbers harvested during milking")
	}
	for _, e := range bl.Entries() {
		if len(e.Number) != len("+1-800-555-0123") {
			t.Fatalf("malformed number %q", e.Number)
		}
		if len(e.Sources) == 0 {
			t.Fatalf("number %s without sources", e.Number)
		}
	}
	// Tech-support clusters also carry the numbers in their triage
	// signals.
	found := false
	for _, c := range res.Discovery.Campaigns() {
		if c.Category == core.CatTechSupport && len(c.Signals.ScamPhones) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no tech-support cluster with harvested phones")
	}
}

func TestParkedClustersAutoFiltered(t *testing.T) {
	_, res := quickRun(t)
	// Every benign cluster whose pages are parked placeholders must have
	// a high mean parking score, and no SE cluster should.
	for _, c := range res.Discovery.Campaigns() {
		if c.Signals.MeanParkedScore() >= 0.6 {
			t.Errorf("SE cluster %d (%s) has parked score %.2f", c.ID, c.Category, c.Signals.MeanParkedScore())
		}
	}
}
