package secamp

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/adscript"
	"repro/internal/dom"
	"repro/internal/rng"
	"repro/internal/vclock"
	"repro/internal/webtx"
)

// Recorder receives ground-truth notifications from the world side: every
// attack domain a campaign mints. The world generator implements it to
// feed the GSB simulator and the evaluation oracle. The measurement
// pipeline never sees this interface.
type Recorder interface {
	RecordAttackDomain(campaignID string, cat Category, host string, born time.Time)
}

// Config tunes one campaign's dynamics.
type Config struct {
	// RotationPeriod is how often the campaign moves to fresh attack
	// domains (the paper observed lifetimes of hours to a few days).
	RotationPeriod time.Duration
	// Slots is how many attack domains are active in parallel.
	Slots int
	// TTLFactor: a minted domain answers for TTLFactor*RotationPeriod
	// after its nominal birth, then serves Gone ("after an hour, this URL
	// became unreachable").
	TTLFactor int
	// TDSCount is the number of upstream traffic-distribution hosts
	// (milkable URLs) the campaign operates.
	TDSCount int
	// Lifetime, when positive, retires the campaign that long after
	// Install: the TDS hosts stop resolving fresh attack domains and
	// serve Gone. Real campaigns are ephemeral; retired ones are what the
	// milkable-URL verification pass weeds out.
	Lifetime time.Duration
}

// DefaultConfig draws a plausible configuration from src.
func DefaultConfig(src *rng.Source) Config {
	return Config{
		RotationPeriod: time.Duration(src.IntRange(45, 240)) * time.Minute,
		Slots:          src.IntRange(2, 4),
		TTLFactor:      3,
		TDSCount:       src.IntRange(1, 2),
	}
}

// Campaign is one live SE attack campaign on the synthetic web.
type Campaign struct {
	ID       string
	Category Category
	Template Template
	Cfg      Config

	// TDSHosts are the campaign's upstream (milkable) hosts; TDSPath is
	// the entry path on each.
	TDSHosts []string
	TDSPath  string

	landPrefix string // constant landing-path prefix (Figure 4's stable URL pattern)
	tld        string
	dlKey      byte // obfuscation key for in-page URLs

	clock    *vclock.Clock
	src      *rng.Source
	internet *webtx.Internet
	recorder Recorder
	start    time.Time

	mu       sync.Mutex
	minted   map[string]mintInfo   // attack host -> info
	pages    map[string]attackPage // attack host -> cached landing page
	fileSeq  int                   // downloads served, for load stats
	sessions int                   // TDS hits, for load stats
}

type mintInfo struct {
	idx  int
	slot int
	born time.Time
}

// attackPage is a cached landing-page response, valid for one path on
// one attack host. The page content is a pure function of (host, path)
// — templates, behaviour scripts, and download tokens all derive from
// host-keyed splits — so the document is built once, sealed, and the
// same Response served to every session until the domain's TTL burns
// it. Sealing lets the browser side memoize the render fingerprint and
// serialization instead of re-walking the tree per fetch.
type attackPage struct {
	path string
	resp *webtx.Response
}

// New creates a campaign. index distinguishes same-category campaigns for
// template derivation. The campaign is inert until Install is called.
func New(id string, cat Category, index int, cfg Config, clock *vclock.Clock, src *rng.Source, rec Recorder) *Campaign {
	csrc := src.Split("campaign/" + id)
	c := &Campaign{
		ID:         id,
		Category:   cat,
		Template:   NewTemplate(cat, index, csrc.Split("template")),
		Cfg:        cfg,
		TDSPath:    "/track/" + csrc.Token(6),
		landPrefix: "/" + csrc.Token(2) + fmt.Sprintf("%d/", csrc.Intn(10)),
		tld:        rng.Pick(csrc, []string{"club", "online", "xyz", "site", "top", "icu", "win", "stream"}),
		dlKey:      byte(csrc.IntRange(1, 250)),
		clock:      clock,
		src:        csrc,
		recorder:   rec,
		minted:     map[string]mintInfo{},
		pages:      map[string]attackPage{},
	}
	for i := 0; i < cfg.TDSCount; i++ {
		c.TDSHosts = append(c.TDSHosts, fmt.Sprintf("%s%d.info", csrc.Token(7), csrc.Intn(1000)))
	}
	return c
}

// Install registers the campaign's TDS hosts on the internet and records
// the start of its rotation timeline.
func (c *Campaign) Install(internet *webtx.Internet) {
	c.internet = internet
	c.start = c.clock.Now()
	for _, h := range c.TDSHosts {
		internet.Register(h, webtx.HandlerFunc(c.serveTDS))
	}
}

// TDSURLs returns the campaign's upstream entry URLs — what a backtracking
// graph exposes as candidate milkable URLs.
func (c *Campaign) TDSURLs() []string {
	out := make([]string, len(c.TDSHosts))
	for i, h := range c.TDSHosts {
		out[i] = "http://" + h + c.TDSPath
	}
	return out
}

// EntryURL returns the primary TDS URL; ad networks send clicks here.
func (c *Campaign) EntryURL() string { return c.TDSURLs()[0] }

// Targets reports whether the campaign serves content to the given UA
// (the paper's campaigns are platform-targeted; Section 3.2, 4.3).
func (c *Campaign) Targets(ua webtx.UserAgent) bool {
	if c.Category.MobileOnly() {
		return ua.Mobile
	}
	if c.Category.DesktopOnly() {
		return !ua.Mobile
	}
	return true
}

// rotationIndex returns the current rotation epoch at time t.
func (c *Campaign) rotationIndex(t time.Time) int {
	if t.Before(c.start) {
		return 0
	}
	return int(t.Sub(c.start) / c.Cfg.RotationPeriod)
}

// attackHost deterministically names the attack domain for (idx, slot).
func (c *Campaign) attackHost(idx, slot int) string {
	h := c.src.Split(fmt.Sprintf("host/%d/%d", idx, slot))
	return fmt.Sprintf("%s%d.%s", h.Token(8), h.Intn(100), c.tld)
}

// serveTDS is the upstream handler: it mints (or reuses) the current
// attack domain and redirects there. Re-visiting the same TDS URL later
// yields a fresh, not-yet-blacklisted attack domain — the "milkable"
// behaviour of Section 3.5.
func (c *Campaign) serveTDS(req *webtx.Request) *webtx.Response {
	now := req.Time
	if now.IsZero() {
		now = c.clock.Now()
	}
	if c.Cfg.Lifetime > 0 && now.After(c.start.Add(c.Cfg.Lifetime)) {
		return webtx.Gone() // campaign retired
	}
	if !c.Targets(req.UserAgent) {
		// Off-target traffic bounces to an empty page on the TDS itself.
		return webtx.HTMLPage("<html></html>")
	}
	idx := c.rotationIndex(now)
	// The slot draw is keyed to the request (epoch, UA, client class,
	// virtual second) rather than pulled from the shared sequential
	// stream: concurrent same-instant TDS hits must not perturb each
	// other's domain choice, or milking with more than one worker would
	// be schedule-dependent. The timestamp in the key keeps the draw
	// varying across a crawl (whose fetches are paced on the virtual
	// clock) the way the old per-request draw did.
	slot := c.src.Split(fmt.Sprintf("slot/%d/%s/%d/%d", idx, req.UserAgent.Name, req.ClientIP, now.Unix())).Intn(c.Cfg.Slots)
	host := c.mint(idx, slot, now)

	c.mu.Lock()
	c.sessions++
	c.mu.Unlock()

	land := fmt.Sprintf("http://%s%s%s?v=%d", host, c.landPrefix, "index.html", idx%7)
	return webtx.RedirectTo(land)
}

// mint ensures the attack domain for (idx, slot) exists and returns it.
// The host's handler is registered before the host becomes visible in
// minted, both under c.mu: a concurrent request that finds the host
// minted — and redirects a browser there — always finds it served.
func (c *Campaign) mint(idx, slot int, now time.Time) string {
	host := c.attackHost(idx, slot)
	c.mu.Lock()
	info, ok := c.minted[host]
	if !ok {
		born := c.start.Add(time.Duration(idx) * c.Cfg.RotationPeriod)
		if born.After(now) {
			born = now
		}
		info = mintInfo{idx: idx, slot: slot, born: born}
		c.internet.Register(host, webtx.HandlerFunc(c.serveAttack))
		c.minted[host] = info
	}
	c.mu.Unlock()
	if !ok {
		if c.recorder != nil {
			// The domain's life begins at its rotation epoch, not at the
			// first request that happens to reach it: blacklists race
			// against the rotation schedule, not against our crawler.
			c.recorder.RecordAttackDomain(c.ID, c.Category, host, info.born)
		}
	}
	return host
}

// serveAttack serves the SE landing page, its downloads, and expiry.
func (c *Campaign) serveAttack(req *webtx.Request) *webtx.Response {
	now := req.Time
	if now.IsZero() {
		now = c.clock.Now()
	}
	host := req.URL.Host
	c.mu.Lock()
	info, ok := c.minted[host]
	if !ok {
		c.mu.Unlock()
		return webtx.NotFound()
	}
	ttl := time.Duration(c.Cfg.TTLFactor) * c.Cfg.RotationPeriod
	if now.After(info.born.Add(ttl)) {
		// Throw-away domain burned; drop its cached page too — the host
		// never serves content again.
		delete(c.pages, host)
		c.mu.Unlock()
		return webtx.Gone()
	}
	if len(req.URL.Path) >= 4 && req.URL.Path[:4] == "/dl/" {
		c.fileSeq++
		c.mu.Unlock()
		return c.serveDownload(req, now)
	}
	if page, hit := c.pages[host]; hit && page.path == req.URL.Path {
		c.mu.Unlock()
		return page.resp
	}
	c.mu.Unlock()

	// Build outside the lock: BuildDoc walks template geometry and is the
	// expensive part. The page is a pure function of (host, path), so a
	// concurrent double build produces an identical document and either
	// copy may win the store below.
	pageURL := "http://" + host + req.URL.Path
	doc := c.Template.BuildDoc(pageURL, hashHost(host))
	c.attachBehaviour(doc, host)
	resp := webtx.DocumentPage(doc.Seal())
	c.mu.Lock()
	c.pages[host] = attackPage{path: req.URL.Path, resp: resp}
	c.mu.Unlock()
	return resp
}

// serveDownload mints a fresh polymorphic binary (Section 4.5: the
// binaries are highly polymorphic; almost every download has a new hash).
// The binary is keyed to the request — URL, referrer, UA, client IP and
// virtual instant — not to a serving counter, so concurrent sessions
// never shift each other's hashes; distinct downloads differ at least in
// their instant.
func (c *Campaign) serveDownload(req *webtx.Request, now time.Time) *webtx.Response {
	h := c.src.Keyed(fmt.Sprintf("file/%s/%s/%s/%d/%d", req.URL.String(), req.Referrer,
		req.UserAgent.Name, req.ClientIP, now.UnixNano()))
	format := "pe"
	if c.Category == FakeSoftware && h.Bool(0.35) {
		format = "dmg"
	}
	return &webtx.Response{
		Status:      webtx.StatusOK,
		ContentType: webtx.ContentTypeBinary,
		Download: &webtx.Download{
			Filename:   c.Template.Brand + "-setup." + format,
			SHA256:     h.HexToken(64),
			Size:       200000 + h.Intn(3000000),
			Format:     format,
			CampaignID: c.ID,
		},
	}
}

// attachBehaviour wires the landing page's scripts: page locking,
// download listeners, notification lures.
func (c *Campaign) attachBehaviour(doc *dom.Document, host string) {
	var code string
	// Download-URL tokens derive from the host so that rebuilding the same
	// page — in any order, on any goroutine — embeds the same URL.
	switch c.Category {
	case FakeSoftware:
		dl := adscript.EncodeString("http://"+host+"/dl/"+c.src.Split("dl/"+host).Token(6)+".bin", c.dlKey)
		code = fmt.Sprintf(`
			document.listen("install", "click", function() {
				document.download(dec("%s", %d));
			});
		`, dl, c.dlKey)
	case Scareware:
		dl := adscript.EncodeString("http://"+host+"/dl/"+c.src.Split("dl/"+host).Token(6)+".bin", c.dlKey)
		code = fmt.Sprintf(`
			window.onbeforeunload(function() { return "Your PC is at risk!"; });
			window.alert("WARNING! %s detected 12 threats on your system.");
			document.listen("install", "click", function() {
				document.download(dec("%s", %d));
			});
		`, c.Template.Brand, dl, c.dlKey)
	case TechSupport:
		// Aggressive page locking: modal loop + beforeunload (Section 3.2
		// "Implementation Challenges").
		code = fmt.Sprintf(`
			window.onbeforeunload(function() { return "locked"; });
			let i = 0;
			while (i < 3) {
				window.alert("Windows Security Alert! Call %s immediately.");
				i = i + 1;
			}
		`, c.Template.PhoneNumber)
	case Lottery:
		code = `
			document.listen("claim", "click", function() {
				window.alert("Enter your details to claim the prize!");
			});
		`
	case Notifications:
		code = `
			notification.request();
			document.listen("allow", "click", function() { notification.request(); });
			document.listen("deny", "click", function() { notification.request(); });
		`
	case Registration:
		cust := adscript.EncodeString("http://www."+sanitizeBrand(c.Template.Brand)+".com/signup?ref="+c.ID, c.dlKey)
		code = fmt.Sprintf(`
			document.listen("play", "click", function() {
				window.alert("Create a free account to continue watching.");
			});
			document.listen("signup", "click", function() {
				window.open(dec("%s", %d));
			});
		`, cust, c.dlKey)
	}
	if code != "" {
		doc.Scripts = append(doc.Scripts, dom.ScriptRef{Code: code})
	}
}

// CustomerHost returns the Registration campaign's customer site host (the
// scam site users are enticed to register on), empty otherwise.
func (c *Campaign) CustomerHost() string {
	if c.Category != Registration {
		return ""
	}
	return "www." + sanitizeBrand(c.Template.Brand) + ".com"
}

// Stats reports campaign-side load counters.
func (c *Campaign) Stats() (tdsSessions, mintedDomains, filesServed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessions, len(c.minted), c.fileSeq
}

// MintedDomains returns all attack domains the campaign has registered so
// far (ground truth for coverage evaluation).
func (c *Campaign) MintedDomains() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.minted))
	for h := range c.minted {
		out = append(out, h)
	}
	return out
}

func sanitizeBrand(b string) string {
	out := make([]byte, 0, len(b))
	for i := 0; i < len(b); i++ {
		ch := b[i]
		switch {
		case ch >= 'a' && ch <= 'z':
			out = append(out, ch)
		case ch >= 'A' && ch <= 'Z':
			out = append(out, ch+'a'-'A')
		}
	}
	return string(out)
}

func hashHost(host string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(host); i++ {
		h ^= uint64(host[i])
		h *= 1099511628211
	}
	return h
}
