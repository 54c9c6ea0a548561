package adnet

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adscript"
	"repro/internal/rng"
	"repro/internal/secamp"
	"repro/internal/urlx"
	"repro/internal/vclock"
	"repro/internal/webtx"
)

func specByName(t *testing.T, name string) Spec {
	t.Helper()
	for _, s := range Specs {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no spec %q", name)
	return Spec{}
}

func newNetWithFills(t *testing.T, spec Spec) (*Network, *webtx.Internet, *secamp.Campaign) {
	t.Helper()
	src := rng.New(1)
	internet := webtx.NewInternet()
	clock := vclock.New()
	n := New(spec, src)
	n.Install(internet)
	camp := secamp.New("campX", secamp.FakeSoftware, 0,
		secamp.Config{RotationPeriod: time.Hour, Slots: 2, TTLFactor: 3, TDSCount: 1},
		clock, src, nil)
	camp.Install(internet)
	n.AddCampaign(camp)
	adv := secamp.NewAdvertiser("advX", src)
	adv.Install(internet)
	n.AddAdvertiser(adv)
	return n, internet, camp
}

func TestSpecsTableShape(t *testing.T) {
	if len(Specs) != 14 {
		t.Fatalf("specs = %d, want 11 seed + 3 discovered", len(Specs))
	}
	if len(SeedSpecs()) != 11 {
		t.Fatalf("seed specs = %d", len(SeedSpecs()))
	}
	seenTok := map[string]bool{}
	seenVar := map[string]bool{}
	for _, s := range Specs {
		if s.PathToken == "" || s.InvariantVar == "" {
			t.Fatalf("%s: missing invariants", s.Name)
		}
		if seenTok[s.PathToken] || seenVar[s.InvariantVar] {
			t.Fatalf("%s: invariant collision", s.Name)
		}
		seenTok[s.PathToken] = true
		seenVar[s.InvariantVar] = true
	}
	// Table 3 facts: RevenueHits and AdSterra use hundreds of domains;
	// PopCash/AdSterra/AdCash exceed 50% SE rate; Propeller and Clickadu
	// cloak on IP.
	if specByName(t, "RevenueHits").ScriptDomainCount != 517 || specByName(t, "AdSterra").ScriptDomainCount != 578 {
		t.Fatal("script domain counts drifted from Table 3")
	}
	over50 := 0
	for _, s := range SeedSpecs() {
		if s.SERate > 0.5 {
			over50++
		}
	}
	if over50 != 3 {
		t.Fatalf("%d seed networks above 50%% SE rate, Table 3 has 3", over50)
	}
	if !specByName(t, "Propeller").ResidentialOnly || !specByName(t, "Clickadu").ResidentialOnly {
		t.Fatal("cloaking networks not flagged")
	}
	if !specByName(t, "Clicksor").StaticDomains {
		t.Fatal("Clicksor should have static (blockable) domains")
	}
}

func TestDomainGeneration(t *testing.T) {
	src := rng.New(2)
	n := New(specByName(t, "AdSterra"), src)
	if len(n.ScriptDomains) != 578 {
		t.Fatalf("AdSterra domains = %d", len(n.ScriptDomains))
	}
	seen := map[string]bool{}
	for _, d := range n.ScriptDomains {
		if seen[d] {
			t.Fatalf("duplicate domain %s", d)
		}
		seen[d] = true
	}
	if len(n.ClickDomains) == 0 {
		t.Fatal("no click domains")
	}
	cks := New(specByName(t, "Clicksor"), src)
	for _, d := range cks.ScriptDomains {
		if !strings.Contains(d, "clicksor") {
			t.Fatalf("static network domain %q not recognisable", d)
		}
	}
}

func TestSnippetObfuscation(t *testing.T) {
	src := rng.New(3)
	n := New(specByName(t, "PopCash"), src)
	code := n.SnippetCode(12345)
	// The invariant survives obfuscation...
	if !strings.Contains(code, "let _pcWidget =") {
		t.Fatalf("snippet lost invariant: %s", code)
	}
	// ...but the script domain does not appear in cleartext.
	for _, d := range n.ScriptDomains {
		if strings.Contains(code, d) {
			t.Fatalf("script domain %s leaks in snippet", d)
		}
	}
	// The snippet must be valid adscript.
	if _, err := adscript.Parse(code); err != nil {
		t.Fatalf("snippet does not parse: %v\n%s", err, code)
	}
}

func TestSnippetsVaryButKeepInvariant(t *testing.T) {
	src := rng.New(4)
	n := New(specByName(t, "PopAds"), src)
	a, b := n.SnippetCode(1), n.SnippetCode(1)
	if a == b {
		t.Fatal("snippets not polymorphic")
	}
	for _, s := range []string{a, b} {
		if !strings.Contains(s, n.SearchSnippet()) {
			t.Fatal("invariant missing")
		}
	}
}

func TestServeScriptStructure(t *testing.T) {
	n, internet, _ := newNetWithFills(t, specByName(t, "PopCash"))
	raw := "http://" + n.ScriptDomains[0] + "/pcash/v3/serve.js?zid=777"
	resp, err := internet.RoundTrip(&webtx.Request{URL: urlx.MustParse(raw), UserAgent: webtx.UAChromeMac, ClientIP: webtx.IPResidential})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentType != webtx.ContentTypeJavaScript {
		t.Fatalf("content type = %s", resp.ContentType)
	}
	if _, err := adscript.Parse(resp.Body); err != nil {
		t.Fatalf("served script unparsable: %v", err)
	}
	if !strings.Contains(resp.Body, "addOverlay") || !strings.Contains(resp.Body, "window.open") {
		t.Fatalf("script lacks ad behaviour:\n%s", resp.Body)
	}
	// Wrong path 404s.
	bad := "http://" + n.ScriptDomains[0] + "/other/serve.js"
	resp, err = internet.RoundTrip(&webtx.Request{URL: urlx.MustParse(bad), UserAgent: webtx.UAChromeMac})
	if err != nil || resp.Status != webtx.StatusNotFound {
		t.Fatalf("bad path: %v %v", resp, err)
	}
}

func TestWebdriverGuardPresence(t *testing.T) {
	withGuard, internet, _ := newNetWithFills(t, specByName(t, "Propeller"))
	raw := "http://" + withGuard.ScriptDomains[0] + "/prp/v1/serve.js?zid=1"
	resp, _ := internet.RoundTrip(&webtx.Request{URL: urlx.MustParse(raw), UserAgent: webtx.UAChromeMac, ClientIP: webtx.IPResidential})
	if !strings.Contains(resp.Body, "navigator.webdriver") {
		t.Fatal("Propeller script lacks webdriver check")
	}
	noGuard, internet2, _ := newNetWithFills(t, specByName(t, "PopCash"))
	raw2 := "http://" + noGuard.ScriptDomains[0] + "/pcash/v1/serve.js?zid=1"
	resp2, _ := internet2.RoundTrip(&webtx.Request{URL: urlx.MustParse(raw2), UserAgent: webtx.UAChromeMac, ClientIP: webtx.IPResidential})
	if strings.Contains(resp2.Body, "navigator.webdriver") {
		t.Fatal("PopCash unexpectedly checks webdriver")
	}
}

func TestClickRedirectsAndSERate(t *testing.T) {
	n, internet, camp := newNetWithFills(t, specByName(t, "PopCash"))
	clickURL := "http://" + n.ClickDomains[0] + n.clickPath() + "?z=1"
	se := 0
	trials := 2000
	for i := 0; i < trials; i++ {
		resp, err := internet.RoundTrip(&webtx.Request{URL: urlx.MustParse(clickURL), UserAgent: webtx.UAChromeMac, ClientIP: webtx.IPResidential})
		if err != nil || !resp.Redirect() {
			t.Fatalf("click %d: %v %v", i, resp, err)
		}
		if strings.Contains(resp.Location, urlx.MustParse(camp.EntryURL()).Host) {
			se++
		}
	}
	rate := float64(se) / float64(trials)
	want := specByName(t, "PopCash").SERate
	if rate < want-0.05 || rate > want+0.05 {
		t.Fatalf("SE rate = %.3f, want ~%.3f", rate, want)
	}
	clicks, seFills := n.Stats()
	if clicks != trials || seFills != se {
		t.Fatalf("stats = %d/%d", clicks, seFills)
	}
}

func TestIPCloaking(t *testing.T) {
	n, internet, camp := newNetWithFills(t, specByName(t, "Propeller"))
	clickURL := "http://" + n.ClickDomains[0] + n.clickPath() + "?z=1"
	for i := 0; i < 500; i++ {
		resp, err := internet.RoundTrip(&webtx.Request{URL: urlx.MustParse(clickURL), UserAgent: webtx.UAChromeMac, ClientIP: webtx.IPDatacenter})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(resp.Location, urlx.MustParse(camp.EntryURL()).Host) {
			t.Fatal("SE fill served to datacenter IP despite cloaking")
		}
	}
	// Residential IPs do receive SE fills.
	got := false
	for i := 0; i < 500 && !got; i++ {
		resp, _ := internet.RoundTrip(&webtx.Request{URL: urlx.MustParse(clickURL), UserAgent: webtx.UAChromeMac, ClientIP: webtx.IPResidential})
		got = strings.Contains(resp.Location, urlx.MustParse(camp.EntryURL()).Host)
	}
	if !got {
		t.Fatal("no SE fill for residential IP in 500 clicks")
	}
}

func TestUATargetedFills(t *testing.T) {
	src := rng.New(5)
	internet := webtx.NewInternet()
	clock := vclock.New()
	n := New(specByName(t, "PopCash"), src)
	n.Install(internet)
	lottery := secamp.New("lot", secamp.Lottery, 0,
		secamp.Config{RotationPeriod: time.Hour, Slots: 1, TTLFactor: 3, TDSCount: 1}, clock, src, nil)
	lottery.Install(internet)
	n.AddCampaign(lottery)
	// Desktop UA: lottery (mobile-only) is the only campaign, so no SE
	// fills should ever be chosen.
	for i := 0; i < 300; i++ {
		f := n.ChooseFill(webtx.UAChromeMac, webtx.IPResidential)
		if f.SE {
			t.Fatal("mobile-only campaign served to desktop")
		}
	}
	se := false
	for i := 0; i < 300 && !se; i++ {
		se = n.ChooseFill(webtx.UAChromeAndroid, webtx.IPResidential).SE
	}
	if !se {
		t.Fatal("no SE fill for mobile UA")
	}
}

func TestBenignFamilyFills(t *testing.T) {
	src := rng.New(6)
	n := New(specByName(t, "HilltopAds"), src)
	fam := secamp.NewBenignFamily("parked", secamp.BenignParked, 6, src)
	n.AddBenignFamily(fam)
	adv := secamp.NewAdvertiser("adv", src)
	n.AddAdvertiser(adv)
	famHits := 0
	for i := 0; i < 1000; i++ {
		f := n.ChooseFill(webtx.UAChromeMac, webtx.IPResidential)
		if f.SE {
			continue
		}
		for _, d := range fam.Domains {
			if strings.Contains(f.URL, d) {
				famHits++
			}
		}
	}
	if famHits == 0 {
		t.Fatal("benign family never used as fill")
	}
}

func TestPatternsMatchOwnTraffic(t *testing.T) {
	src := rng.New(7)
	ps := urlx.NewPatternSet()
	var nets []*Network
	for _, spec := range Specs {
		n := New(spec, src)
		nets = append(nets, n)
		if spec.Seed {
			ps.Add(spec.Name, n.Patterns()...)
		}
	}
	for _, n := range nets {
		serveURL := urlx.MustParse("http://" + n.ScriptDomains[0] + n.servePath() + "?zid=5")
		clickURL := urlx.MustParse("http://" + n.ClickDomains[0] + n.clickPath() + "?z=5&n=0")
		snippet := n.SnippetCode(5)
		wantOwner := n.Spec.Name
		if !n.Spec.Seed {
			wantOwner = "" // unknown networks must NOT match seed patterns
		}
		if got := ps.MatchURL(serveURL); got != wantOwner {
			t.Errorf("%s serve URL attributed to %q", n.Spec.Name, got)
		}
		if got := ps.MatchURL(clickURL); got != wantOwner {
			t.Errorf("%s click URL attributed to %q", n.Spec.Name, got)
		}
		if got := ps.MatchSource(snippet); got != wantOwner {
			t.Errorf("%s snippet attributed to %q", n.Spec.Name, got)
		}
	}
}

func TestZoneForStable(t *testing.T) {
	a, b := ZoneFor("pub.com"), ZoneFor("pub.com")
	if a != b {
		t.Fatal("ZoneFor not deterministic")
	}
	if a < 10000 || a > 99999 {
		t.Fatalf("zone = %d", a)
	}
}

func TestAllDomains(t *testing.T) {
	n := New(specByName(t, "PopAds"), rng.New(8))
	all := n.AllDomains()
	if len(all) != len(n.ScriptDomains)+len(n.ClickDomains) {
		t.Fatalf("AllDomains = %d", len(all))
	}
}

// TestServedFillsKeyedToRequest: a click that carries a virtual instant
// draws its fill from its own request, so the fill is the same whether
// clicks are served serially or by concurrent sessions in any order,
// and across distinct instants the SE rate still follows the spec.
func TestServedFillsKeyedToRequest(t *testing.T) {
	n, internet, camp := newNetWithFills(t, specByName(t, "PopCash"))
	const clicks = 2000
	click := func(i int) string {
		resp, err := internet.RoundTrip(&webtx.Request{
			URL:       urlx.MustParse("http://" + n.ClickDomains[0] + n.clickPath() + "?z=1"),
			Referrer:  "http://pub.example/",
			UserAgent: webtx.UAChromeMac, ClientIP: webtx.IPResidential,
			Time: vclock.Epoch.Add(time.Duration(i) * 2 * time.Second),
		})
		if err != nil || !resp.Redirect() {
			t.Errorf("click %d: %v %v", i, resp, err)
			return ""
		}
		return resp.Location
	}
	serial := make([]string, clicks)
	for i := range serial {
		serial[i] = click(i)
	}
	concurrent := make([]string, clicks)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := clicks - 1 - w; i >= 0; i -= 8 {
				concurrent[i] = click(i)
			}
		}(w)
	}
	wg.Wait()
	se := 0
	for i := range serial {
		if serial[i] != concurrent[i] {
			t.Fatalf("click %d: serial fill %s, concurrent fill %s", i, serial[i], concurrent[i])
		}
		if strings.Contains(serial[i], urlx.MustParse(camp.EntryURL()).Host) {
			se++
		}
	}
	rate := float64(se) / clicks
	if want := n.Spec.SERate; rate < want-0.05 || rate > want+0.05 {
		t.Fatalf("SE rate = %.3f, want ~%.3f", rate, want)
	}
}
