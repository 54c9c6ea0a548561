// Package adnet simulates the low-tier ad networks at the centre of the
// paper's measurement: the 11 seed networks of Table 3 plus the three
// initially-unknown networks discovered in Section 4.4 (Ero Advertising,
// Yllix, Ad-Center).
//
// Each network reproduces the behaviours the pipeline must overcome:
//
//   - obfuscated publisher snippets whose only stable artefacts are the
//     invariant features the paper extracts (a JS variable name, a serve
//     URL path structure) — Section 3.1;
//   - many rotating script-hosting domains to evade ad blockers
//     (RevenueHits used 517, AdSterra 578 — Table 3);
//   - anti-automation checks on navigator.webdriver — Section 3.2;
//   - IP cloaking: Propeller and Clickadu serve only benign fills to
//     non-residential address space — Section 3.2;
//   - click-through indirection: clicks open a network click-tracker URL
//     that 302s to the advertiser (an SE campaign's TDS, or a benign
//     advertiser) — the middle hop of Figure 3's backtracking graph.
package adnet

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/adscript"
	"repro/internal/rng"
	"repro/internal/secamp"
	"repro/internal/urlx"
	"repro/internal/webtx"
)

// Spec is the static description of one ad network, calibrated to
// Table 3.
type Spec struct {
	Name string
	// Seed marks networks in the paper's initial seed list; the three
	// discovered networks are non-seed.
	Seed bool
	// ScriptDomainCount is how many domains host the network's JS
	// (Table 3 column 2).
	ScriptDomainCount int
	// SERate is the fraction of ad fills that lead to SE attacks
	// (Table 3 final column).
	SERate float64
	// MarketWeight controls how many publishers adopt the network,
	// proportional to Table 3's landing-page counts.
	MarketWeight float64
	// ChecksWebdriver guards ad delivery behind navigator.webdriver.
	ChecksWebdriver bool
	// ResidentialOnly cloaks SE fills away from non-residential IPs.
	ResidentialOnly bool
	// StaticDomains marks networks whose domains never rotate and are
	// consequently on ad-blocker filter lists (Clicksor in Section 4.4).
	StaticDomains bool
	// PathToken is the network-unique URL path component — the invariant
	// URL structure used for attribution.
	PathToken string
	// InvariantVar is the JS variable name reused across snippet
	// versions — the invariant source feature.
	InvariantVar string
}

// Specs lists all fourteen networks. Rates and domain counts follow
// Table 3; the three discovered networks get plausible values (the paper
// does not tabulate them).
var Specs = []Spec{
	{Name: "RevenueHits", Seed: true, ScriptDomainCount: 517, SERate: 0.1967, MarketWeight: 15635, PathToken: "rvh", InvariantVar: "_rhblk_q", ChecksWebdriver: true},
	{Name: "AdSterra", Seed: true, ScriptDomainCount: 578, SERate: 0.5062, MarketWeight: 15102, PathToken: "atg", InvariantVar: "atAsyncContainers"},
	{Name: "PopCash", Seed: true, ScriptDomainCount: 2, SERate: 0.6427, MarketWeight: 9734, PathToken: "pcash", InvariantVar: "_pcWidget"},
	{Name: "Propeller", Seed: true, ScriptDomainCount: 4, SERate: 0.4229, MarketWeight: 8206, PathToken: "prp", InvariantVar: "_pNativeZone", ResidentialOnly: true, ChecksWebdriver: true},
	{Name: "PopAds", Seed: true, ScriptDomainCount: 3, SERate: 0.1874, MarketWeight: 4658, PathToken: "pds", InvariantVar: "_pop_handler_v"},
	{Name: "Clickadu", Seed: true, ScriptDomainCount: 10, SERate: 0.3014, MarketWeight: 2814, PathToken: "cdu", InvariantVar: "_cduTag", ResidentialOnly: true},
	{Name: "AdCash", Seed: true, ScriptDomainCount: 14, SERate: 0.5624, MarketWeight: 1698, PathToken: "acsh", InvariantVar: "acZoneData"},
	{Name: "HilltopAds", Seed: true, ScriptDomainCount: 46, SERate: 0.0643, MarketWeight: 1198, PathToken: "hta", InvariantVar: "_htaOptions"},
	{Name: "PopMyAds", Seed: true, ScriptDomainCount: 1, SERate: 0.0863, MarketWeight: 1194, PathToken: "pma", InvariantVar: "pmaSettings"},
	{Name: "AdMaven", Seed: true, ScriptDomainCount: 39, SERate: 0.2460, MarketWeight: 496, PathToken: "amv", InvariantVar: "_mvnQueue", ChecksWebdriver: true},
	{Name: "Clicksor", Seed: true, ScriptDomainCount: 4, SERate: 0.0435, MarketWeight: 276, PathToken: "cks", InvariantVar: "clicksorParams", StaticDomains: true},
	// Discovered in Section 4.4 by analysing "unknown" SE attack logs.
	{Name: "EroAdvertising", Seed: false, ScriptDomainCount: 8, SERate: 0.45, MarketWeight: 900, PathToken: "eroa", InvariantVar: "_eroZoneCfg"},
	{Name: "Yllix", Seed: false, ScriptDomainCount: 5, SERate: 0.35, MarketWeight: 700, PathToken: "ylx", InvariantVar: "yllixPubData"},
	{Name: "AdCenter", Seed: false, ScriptDomainCount: 6, SERate: 0.40, MarketWeight: 600, PathToken: "adctr", InvariantVar: "_adcSlots"},
}

// SeedSpecs returns only the 11 seed networks, in Table 3 order.
func SeedSpecs() []Spec {
	var out []Spec
	for _, s := range Specs {
		if s.Seed {
			out = append(out, s)
		}
	}
	return out
}

// Fill is one ad destination choice.
type Fill struct {
	// URL is where the click redirect sends the browser.
	URL string
	// SE marks fills leading to SE attacks (ground truth).
	SE bool
	// CampaignID names the SE campaign for SE fills.
	CampaignID string
}

// Network is a live ad network on the synthetic web.
type Network struct {
	Spec          Spec
	ScriptDomains []string
	ClickDomains  []string

	obfKey byte
	src    *rng.Source

	mu        sync.Mutex
	campaigns []*secamp.Campaign
	benign    []*secamp.Advertiser
	families  []*secamp.BenignFamily
	clicks    int
	seFills   int
}

// New creates a network from its spec. The network is inert until
// Install.
func New(spec Spec, src *rng.Source) *Network {
	ns := src.Split("adnet/" + spec.Name)
	n := &Network{
		Spec:   spec,
		obfKey: byte(ns.IntRange(1, 250)),
		src:    ns,
	}
	lower := strings.ToLower(spec.Name)
	if spec.StaticDomains {
		// Static-domain networks use recognisable, filterable names.
		n.ScriptDomains = []string{
			lower + ".com", "static." + lower + ".com", "cdn." + lower + ".com", "js." + lower + ".com",
		}
		n.ScriptDomains = n.ScriptDomains[:spec.ScriptDomainCount]
		n.ClickDomains = []string{"click." + lower + ".com"}
		return n
	}
	for i := 0; i < spec.ScriptDomainCount; i++ {
		n.ScriptDomains = append(n.ScriptDomains, fmt.Sprintf("%s.%s", ns.Token(9), rng.Pick(ns, scriptTLDs)))
	}
	nClick := 1 + spec.ScriptDomainCount/50
	for i := 0; i < nClick; i++ {
		n.ClickDomains = append(n.ClickDomains, fmt.Sprintf("%s.%s", ns.Token(8), rng.Pick(ns, scriptTLDs)))
	}
	return n
}

var scriptTLDs = []string{"com", "net", "club", "online", "xyz", "bid", "pro", "site"}

// Name returns the network's name.
func (n *Network) Name() string { return n.Spec.Name }

// servePath is the network-invariant script path: /<tok>/v<NN>/serve.js.
func (n *Network) servePath() string {
	return fmt.Sprintf("/%s/v%d/serve.js", n.Spec.PathToken, n.src.IntRange(1, 9))
}

// clickPath is the network-invariant click-tracker path prefix.
func (n *Network) clickPath() string { return "/" + n.Spec.PathToken + "-c/go" }

// Patterns returns the invariant features an analyst derives for this
// network (Section 3.1): the serve/click URL structure and the snippet
// variable name.
func (n *Network) Patterns() []urlx.Pattern {
	return []urlx.Pattern{
		{Name: n.Spec.Name + "/serve-url", Kind: urlx.KindURL, PathGlob: "/" + n.Spec.PathToken + "/*/serve.js"},
		{Name: n.Spec.Name + "/click-url", Kind: urlx.KindURL, PathPrefix: "/" + n.Spec.PathToken + "-c/"},
		{Name: n.Spec.Name + "/snippet-var", Kind: urlx.KindSource, BodyToken: "let " + n.Spec.InvariantVar + " ="},
	}
}

// SearchSnippet returns the source fragment used to "reverse" the network
// into publisher lists on the source-code search engine.
func (n *Network) SearchSnippet() string { return "let " + n.Spec.InvariantVar + " =" }

// AddCampaign contracts an SE campaign to advertise through this network.
func (n *Network) AddCampaign(c *secamp.Campaign) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.campaigns = append(n.campaigns, c)
}

// AddAdvertiser adds a benign advertiser fill.
func (n *Network) AddAdvertiser(a *secamp.Advertiser) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.benign = append(n.benign, a)
}

// AddBenignFamily adds a benign multi-domain family (parked pages, adult
// stock pages, shortener interstitials) to the fill mix.
func (n *Network) AddBenignFamily(f *secamp.BenignFamily) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.families = append(n.families, f)
}

// SnippetCode builds the obfuscated inline snippet a publisher embeds.
// The snippet's only stable features are the invariant variable name and
// (at runtime) the serve-path URL structure; the script URL itself is
// encoded and rotates domains per publisher.
func (n *Network) SnippetCode(zone int) string {
	scriptDomain := rng.Pick(n.src, n.ScriptDomains)
	serveURL := fmt.Sprintf("http://%s%s?zid=%d", scriptDomain, n.servePath(), zone)
	enc := adscript.EncodeString(serveURL, n.obfKey)
	// Light per-snippet polymorphism around the invariant core.
	junk := n.src.Token(5)
	return fmt.Sprintf(
		"let %s = { z: %d, s: \"%s\" };\nlet _%s = dec(\"%s\", %d);\ndocument.loadScript(_%s);",
		n.Spec.InvariantVar, zone, junk, junk, enc, n.obfKey, junk)
}

// Install registers the network's script and click domains.
func (n *Network) Install(internet *webtx.Internet) {
	for _, d := range n.ScriptDomains {
		internet.Register(d, webtx.HandlerFunc(n.serveScript))
	}
	for _, d := range n.ClickDomains {
		internet.Register(d, webtx.HandlerFunc(n.serveClick))
	}
}

// serveScript returns the ad-delivery JS. The script installs a
// page-wide click listener that opens the network's click-tracker URL —
// the "transparent ad" behaviour of Section 2 — unless the
// anti-automation check trips.
func (n *Network) serveScript(req *webtx.Request) *webtx.Response {
	if !strings.HasSuffix(req.URL.Path, "/serve.js") || !strings.HasPrefix(req.URL.Path, "/"+n.Spec.PathToken+"/") {
		return webtx.NotFound()
	}
	zone := "0"
	for _, kv := range strings.Split(req.URL.Query, "&") {
		if v, ok := strings.CutPrefix(kv, "zid="); ok {
			zone = v
		}
	}
	clickDomain := rng.Pick(n.drawFor("script", req), n.ClickDomains)
	clickBase := fmt.Sprintf("http://%s%s?z=%s", clickDomain, n.clickPath(), zone)
	enc := adscript.EncodeString(clickBase, n.obfKey)
	var b strings.Builder
	guard := ""
	if n.Spec.ChecksWebdriver {
		b.WriteString("if (navigator.webdriver) { let _x = 0; } else {\n")
		guard = "}"
	}
	fmt.Fprintf(&b, `
		document.addOverlay("__ovl_%s", 99999);
		let _n_%s = 0;
		window.addEventListener("click", function() {
			window.open(dec("%s", %d) + "&n=" + _n_%s);
			_n_%s = _n_%s + 1;
		});
	%s`, n.Spec.PathToken, n.Spec.PathToken, enc, n.obfKey, n.Spec.PathToken, n.Spec.PathToken, n.Spec.PathToken, guard)
	return webtx.Script(b.String())
}

// serveClick resolves a click-tracker hit to a fill and redirects. This
// is where IP cloaking happens.
func (n *Network) serveClick(req *webtx.Request) *webtx.Response {
	if !strings.HasPrefix(req.URL.Path, "/"+n.Spec.PathToken+"-c/") {
		return webtx.NotFound()
	}
	fill := n.chooseFill(n.drawFor("fill", req), req.UserAgent, req.ClientIP)
	n.mu.Lock()
	n.clicks++
	if fill.SE {
		n.seFills++
	}
	n.mu.Unlock()
	return webtx.RedirectTo(fill.URL)
}

// drawFor returns the random stream for one served request, keyed
// (rng.Source.Keyed) to the request itself — URL, referrer, UA, client
// IP and virtual instant — rather than pulled from the network's shared
// sequential stream. Concurrent crawl sessions must not perturb each
// other's fills, or the crawl would depend on the worker count; a
// request's draws depend only on what the browser sent. A request
// without a virtual instant (a bare RoundTrip outside any browser
// session) draws from the sequential stream.
func (n *Network) drawFor(kind string, req *webtx.Request) *rng.Source {
	if req.Time.IsZero() {
		return n.src
	}
	return n.src.Keyed(fmt.Sprintf("%s/%s/%s/%s/%d/%d", kind, req.URL.String(), req.Referrer,
		req.UserAgent.Name, req.ClientIP, req.Time.UnixNano()))
}

// ChooseFill picks the ad destination for one click from the network's
// sequential stream. Exposed for direct use in unit tests and
// ablations; served clicks draw from their request-keyed stream.
func (n *Network) ChooseFill(ua webtx.UserAgent, ip webtx.IPClass) Fill {
	return n.chooseFill(n.src, ua, ip)
}

func (n *Network) chooseFill(src *rng.Source, ua webtx.UserAgent, ip webtx.IPClass) Fill {
	n.mu.Lock()
	defer n.mu.Unlock()
	cloaked := n.Spec.ResidentialOnly && ip != webtx.IPResidential
	if !cloaked && src.Bool(n.Spec.SERate) {
		// Pick an SE campaign compatible with the visitor's platform.
		var pool []*secamp.Campaign
		for _, c := range n.campaigns {
			if c.Targets(ua) {
				pool = append(pool, c)
			}
		}
		if len(pool) > 0 {
			c := rng.Pick(src, pool)
			return Fill{URL: c.EntryURL(), SE: true, CampaignID: c.ID}
		}
	}
	// Benign fill: mostly advertisers, occasionally a benign multi-domain
	// family page (parked domains, shortener interstitials, ...).
	if len(n.families) > 0 && src.Bool(0.12) {
		f := rng.Pick(src, n.families)
		return Fill{URL: f.URLFor(src.Intn(len(f.Domains)))}
	}
	if len(n.benign) > 0 {
		a := rng.Pick(src, n.benign)
		return Fill{URL: a.URL()}
	}
	return Fill{URL: "http://fallback-ad.com/"}
}

// Stats reports (clicks served, SE fills served).
func (n *Network) Stats() (clicks, seFills int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.clicks, n.seFills
}

// AllDomains returns every domain the network operates (ground truth for
// attribution evaluation).
func (n *Network) AllDomains() []string {
	out := append([]string(nil), n.ScriptDomains...)
	return append(out, n.ClickDomains...)
}

// ZoneFor derives a stable zone id for a publisher host.
func ZoneFor(host string) int {
	h := 0
	for i := 0; i < len(host); i++ {
		h = h*31 + int(host[i])
	}
	if h < 0 {
		h = -h
	}
	return 10000 + h%90000
}
