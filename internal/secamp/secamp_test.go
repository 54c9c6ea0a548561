package secamp

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/phash"
	"repro/internal/rng"
	"repro/internal/screenshot"
	"repro/internal/urlx"
	"repro/internal/vclock"
	"repro/internal/webtx"
)

type recordedDomain struct {
	campaign string
	cat      Category
	host     string
	born     time.Time
}

type testRecorder struct {
	mu      sync.Mutex
	domains []recordedDomain
}

func (r *testRecorder) RecordAttackDomain(id string, cat Category, host string, born time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.domains = append(r.domains, recordedDomain{id, cat, host, born})
}

func newTestCampaign(t *testing.T, cat Category) (*Campaign, *webtx.Internet, *vclock.Clock, *testRecorder) {
	t.Helper()
	clock := vclock.New()
	internet := webtx.NewInternet()
	rec := &testRecorder{}
	cfg := Config{RotationPeriod: time.Hour, Slots: 2, TTLFactor: 3, TDSCount: 2}
	c := New("camp-1", cat, 0, cfg, clock, rng.New(42), rec)
	c.Install(internet)
	return c, internet, clock, rec
}

func get(t *testing.T, internet *webtx.Internet, raw string, ua webtx.UserAgent, at time.Time) *webtx.Response {
	t.Helper()
	resp, err := internet.RoundTrip(&webtx.Request{
		URL: urlx.MustParse(raw), UserAgent: ua, ClientIP: webtx.IPResidential, Time: at,
	})
	if err != nil {
		t.Fatalf("GET %s: %v", raw, err)
	}
	return resp
}

func TestCategoryKeysAndNames(t *testing.T) {
	if len(AllCategories) != 6 {
		t.Fatalf("categories = %d", len(AllCategories))
	}
	seen := map[string]bool{}
	for _, c := range AllCategories {
		if c.Key() == "" || c.DisplayName() == "" {
			t.Fatalf("category %d incomplete", c)
		}
		if seen[c.Key()] {
			t.Fatalf("duplicate key %q", c.Key())
		}
		seen[c.Key()] = true
	}
	total := 0
	for _, n := range PaperCampaignCounts {
		total += n
	}
	if total != 108 {
		t.Fatalf("paper campaign total = %d, want 108", total)
	}
}

func TestTDSRedirectsToAttackDomain(t *testing.T) {
	c, internet, clock, rec := newTestCampaign(t, FakeSoftware)
	resp := get(t, internet, c.EntryURL(), webtx.UAChromeMac, clock.Now())
	if !resp.Redirect() {
		t.Fatalf("TDS response = %+v", resp)
	}
	land := urlx.MustParse(resp.Location)
	if land.Host == urlx.MustParse(c.EntryURL()).Host {
		t.Fatal("redirect stayed on TDS host")
	}
	if len(rec.domains) != 1 || rec.domains[0].host != land.Host {
		t.Fatalf("recorder = %+v", rec.domains)
	}
	// The attack page must resolve and serve a document.
	page := get(t, internet, resp.Location, webtx.UAChromeMac, clock.Now())
	if page.Status != webtx.StatusOK || page.Doc == nil {
		t.Fatalf("attack page = %+v", page)
	}
	if !strings.Contains(page.Body, "install") {
		t.Fatal("fake-software page has no install button")
	}
}

func TestRotationMintsNewDomains(t *testing.T) {
	c, internet, clock, _ := newTestCampaign(t, FakeSoftware)
	hosts := map[string]bool{}
	for i := 0; i < 12; i++ {
		resp := get(t, internet, c.EntryURL(), webtx.UAChromeMac, clock.Now())
		hosts[urlx.MustParse(resp.Location).Host] = true
		clock.Advance(time.Hour)
	}
	if len(hosts) < 6 {
		t.Fatalf("only %d distinct attack hosts over 12 rotation periods", len(hosts))
	}
	_, minted, _ := c.Stats()
	if minted != len(hosts) {
		t.Fatalf("minted=%d, hosts seen=%d", minted, len(hosts))
	}
}

func TestSameEpochSameDomainPool(t *testing.T) {
	c, internet, clock, _ := newTestCampaign(t, FakeSoftware)
	hosts := map[string]bool{}
	for i := 0; i < 40; i++ {
		resp := get(t, internet, c.EntryURL(), webtx.UAChromeMac, clock.Now())
		hosts[urlx.MustParse(resp.Location).Host] = true
	}
	if len(hosts) > c.Cfg.Slots {
		t.Fatalf("%d hosts within one epoch, want <= %d slots", len(hosts), c.Cfg.Slots)
	}
}

func TestDomainExpiry(t *testing.T) {
	c, internet, clock, _ := newTestCampaign(t, FakeSoftware)
	resp := get(t, internet, c.EntryURL(), webtx.UAChromeMac, clock.Now())
	landURL := resp.Location
	// Within TTL: alive.
	page := get(t, internet, landURL, webtx.UAChromeMac, clock.Now())
	if page.Status != webtx.StatusOK {
		t.Fatalf("fresh domain status = %d", page.Status)
	}
	// After TTL (3 x 1h): gone.
	clock.Advance(5 * time.Hour)
	page = get(t, internet, landURL, webtx.UAChromeMac, clock.Now())
	if page.Status != webtx.StatusGone {
		t.Fatalf("expired domain status = %d", page.Status)
	}
}

func TestStableLandingPathPattern(t *testing.T) {
	// Figure 4: rotating domains keep the same URL pattern.
	c, internet, clock, _ := newTestCampaign(t, FakeSoftware)
	var paths []string
	for i := 0; i < 5; i++ {
		resp := get(t, internet, c.EntryURL(), webtx.UAChromeMac, clock.Now())
		paths = append(paths, urlx.MustParse(resp.Location).Path)
		clock.Advance(2 * time.Hour)
	}
	for _, p := range paths[1:] {
		if p[:len(c.landPrefix)] != c.landPrefix {
			t.Fatalf("path pattern changed: %v", paths)
		}
	}
}

func TestUATargeting(t *testing.T) {
	lottery, internet, clock, _ := newTestCampaign(t, Lottery)
	// Desktop UA bounces (lottery is mobile-only).
	resp := get(t, internet, lottery.EntryURL(), webtx.UAChromeMac, clock.Now())
	if resp.Redirect() {
		t.Fatal("lottery served to desktop UA")
	}
	resp = get(t, internet, lottery.EntryURL(), webtx.UAChromeAndroid, clock.Now())
	if !resp.Redirect() {
		t.Fatal("lottery not served to mobile UA")
	}
	if !lottery.Targets(webtx.UAChromeAndroid) || lottery.Targets(webtx.UAIE10Win) {
		t.Fatal("Targets inconsistent")
	}
}

// TestDownloadsArePolymorphic: every download request mints a new
// binary, and the binary is a pure function of the request — ten
// downloads at ten paced instants get ten hashes, and replaying one
// request gets its hash again.
func TestDownloadsArePolymorphic(t *testing.T) {
	c, internet, clock, _ := newTestCampaign(t, FakeSoftware)
	resp := get(t, internet, c.EntryURL(), webtx.UAChromeMac, clock.Now())
	host := urlx.MustParse(resp.Location).Host
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		at := clock.Now().Add(time.Duration(i) * time.Second)
		dl := get(t, internet, "http://"+host+"/dl/x.bin", webtx.UAChromeMac, at)
		if dl.Download == nil {
			t.Fatalf("no download payload: %+v", dl)
		}
		if dl.Download.CampaignID != "camp-1" || dl.Download.SHA256 == "" {
			t.Fatalf("download = %+v", dl.Download)
		}
		if seen[dl.Download.SHA256] {
			t.Fatal("duplicate hash — binaries must be polymorphic")
		}
		seen[dl.Download.SHA256] = true
		replay := get(t, internet, "http://"+host+"/dl/x.bin", webtx.UAChromeMac, at)
		if replay.Download == nil || replay.Download.SHA256 != dl.Download.SHA256 {
			t.Fatal("replayed download request served a different binary")
		}
	}
}

func TestVisualClusteringProperties(t *testing.T) {
	// Same campaign, different domains -> near hashes; different
	// campaigns -> far hashes. This is the core invariant campaign
	// discovery rests on.
	src := rng.New(7)
	clock := vclock.New()
	cfg := Config{RotationPeriod: time.Hour, Slots: 2, TTLFactor: 3, TDSCount: 1}
	hashFor := func(c *Campaign, host string) phash.Hash {
		doc := c.Template.BuildDoc("http://"+host+"/l/index.html", hashHost(host))
		img := screenshot.Render(doc, screenshot.Options{Noise: true, NoiseSeed: hashHost(host)})
		return phash.DHash(img)
	}
	var campaigns []*Campaign
	for i := 0; i < 6; i++ {
		campaigns = append(campaigns, New(
			"c"+string(rune('A'+i)), FakeSoftware, i, cfg, clock, src, nil))
	}
	// Intra-campaign: 4 domains each.
	for _, c := range campaigns {
		base := hashFor(c, "aaa1.club")
		for _, h := range []string{"bbb2.club", "ccc3.xyz", "ddd4.site"} {
			if d := phash.Distance(base, hashFor(c, h)); d > 12 {
				t.Fatalf("campaign %s: intra distance %d > 12", c.ID, d)
			}
		}
	}
	// Inter-campaign.
	for i := 0; i < len(campaigns); i++ {
		for j := i + 1; j < len(campaigns); j++ {
			a := hashFor(campaigns[i], "same-host.club")
			b := hashFor(campaigns[j], "same-host.club")
			if d := phash.Distance(a, b); d <= 12 {
				t.Fatalf("campaigns %s vs %s too close: %d bits", campaigns[i].ID, campaigns[j].ID, d)
			}
		}
	}
}

func TestCategoryPagesCarryBehaviourScripts(t *testing.T) {
	cases := []struct {
		cat  Category
		ua   webtx.UserAgent
		want string
	}{
		{FakeSoftware, webtx.UAChromeMac, "document.download"},
		{Scareware, webtx.UAIE10Win, "window.onbeforeunload"},
		{TechSupport, webtx.UAEdge12Win, "window.alert"},
		{Lottery, webtx.UAChromeAndroid, `document.listen("claim"`},
		{Notifications, webtx.UAChromeMac, "notification.request"},
		{Registration, webtx.UAChromeMac, "window.open"},
	}
	for _, cse := range cases {
		c, internet, clock, _ := newTestCampaign(t, cse.cat)
		resp := get(t, internet, c.EntryURL(), cse.ua, clock.Now())
		if !resp.Redirect() {
			t.Fatalf("%v: no redirect for %s", cse.cat, cse.ua.Name)
		}
		page := get(t, internet, resp.Location, cse.ua, clock.Now())
		if page.Doc == nil || len(page.Doc.Scripts) == 0 {
			t.Fatalf("%v: no scripts", cse.cat)
		}
		found := false
		for _, s := range page.Doc.Scripts {
			if strings.Contains(s.Code, cse.want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("%v: script missing %q", cse.cat, cse.want)
		}
	}
}

func TestTechSupportHasPhoneNumber(t *testing.T) {
	c, _, _, _ := newTestCampaign(t, TechSupport)
	if c.Template.PhoneNumber == "" {
		t.Fatal("no phone number")
	}
	doc := c.Template.BuildDoc("http://x.club/l", 1)
	if !strings.Contains(doc.Serialize(), c.Template.PhoneNumber) {
		t.Fatal("phone number not on page")
	}
}

func TestRegistrationCustomerSite(t *testing.T) {
	c, internet, _, _ := newTestCampaign(t, Registration)
	host := c.CustomerHost()
	if host == "" {
		t.Fatal("no customer host")
	}
	InstallCustomerSite(internet, host)
	InstallCustomerSite(internet, host) // idempotent
	if !internet.Registered(host) {
		t.Fatal("customer site not registered")
	}
	nonReg := New("x", FakeSoftware, 0, Config{RotationPeriod: time.Hour, Slots: 1, TTLFactor: 1, TDSCount: 1}, vclock.New(), rng.New(1), nil)
	if nonReg.CustomerHost() != "" {
		t.Fatal("non-registration campaign has customer host")
	}
}

func TestBenignFamilyClusters(t *testing.T) {
	src := rng.New(11)
	internet := webtx.NewInternet()
	fam := NewBenignFamily("parked-1", BenignParked, 8, src)
	fam.Install(internet)
	if len(fam.Domains) != 8 {
		t.Fatalf("domains = %d", len(fam.Domains))
	}
	// All domains serve visually near-identical pages.
	var base phash.Hash
	for i, d := range fam.Domains {
		resp := get(t, internet, "http://"+d+"/", webtx.UAChromeMac, vclock.Epoch)
		if resp.Doc == nil {
			t.Fatalf("no doc from %s", d)
		}
		h := phash.DHash(screenshot.Render(resp.Doc, screenshot.Options{}))
		if i == 0 {
			base = h
			continue
		}
		if dd := phash.Distance(base, h); dd > 12 {
			t.Fatalf("family page distance %d", dd)
		}
	}
}

func TestBenignFamiliesDistinct(t *testing.T) {
	src := rng.New(12)
	kinds := []BenignKind{BenignParked, BenignAdultStock, BenignShortener, BenignAdvertiser}
	var hashes []phash.Hash
	for i, k := range kinds {
		f := NewBenignFamily("fam"+string(rune('0'+i)), k, 2, src)
		doc := f.buildDoc("http://" + f.Domains[0] + "/")
		hashes = append(hashes, phash.DHash(screenshot.Render(doc, screenshot.Options{})))
	}
	for i := 0; i < len(hashes); i++ {
		for j := i + 1; j < len(hashes); j++ {
			if d := phash.Distance(hashes[i], hashes[j]); d <= 12 {
				t.Fatalf("kinds %v vs %v too close: %d", kinds[i], kinds[j], d)
			}
		}
	}
}

func TestBenignKindString(t *testing.T) {
	for _, k := range []BenignKind{BenignAdvertiser, BenignParked, BenignAdultStock, BenignShortener, BenignSpurious} {
		if k.String() == "" || strings.HasPrefix(k.String(), "BenignKind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestAdvertiser(t *testing.T) {
	internet := webtx.NewInternet()
	a := NewAdvertiser("adv-1", rng.New(13))
	a.Install(internet)
	resp := get(t, internet, a.URL(), webtx.UAChromeMac, vclock.Epoch)
	if resp.Status != webtx.StatusOK || resp.Doc == nil {
		t.Fatalf("advertiser page = %+v", resp)
	}
}

func TestOffTargetTDSDoesNotMint(t *testing.T) {
	c, internet, clock, rec := newTestCampaign(t, Lottery)
	get(t, internet, c.EntryURL(), webtx.UAChromeMac, clock.Now()) // desktop on mobile-only
	if len(rec.domains) != 0 {
		t.Fatalf("off-target visit minted %v", rec.domains)
	}
	sessions, minted, _ := c.Stats()
	if sessions != 0 || minted != 0 {
		t.Fatalf("stats = %d sessions %d minted", sessions, minted)
	}
}

// TestConcurrentTDSRedirectsAlwaysServe: many sessions hit one TDS in
// the same rotation epoch at once, so several race to mint each attack
// domain. Whichever request wins, every redirect target must already be
// registered and serve its landing page — a minted host is never
// visible before its handler exists.
func TestConcurrentTDSRedirectsAlwaysServe(t *testing.T) {
	c, internet, clock, _ := newTestCampaign(t, FakeSoftware)
	const sessions = 16
	for epoch := 0; epoch < 20; epoch++ {
		base := clock.Now().Add(time.Duration(epoch) * c.Cfg.RotationPeriod)
		start := make(chan struct{})
		errs := make(chan string, sessions)
		var wg sync.WaitGroup
		for k := 0; k < sessions; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				at := base.Add(time.Duration(k%4) * time.Second)
				<-start
				resp, err := internet.RoundTrip(&webtx.Request{
					URL: urlx.MustParse(c.EntryURL()), UserAgent: webtx.UAChromeMac, ClientIP: webtx.IPResidential, Time: at,
				})
				if err != nil || !resp.Redirect() {
					errs <- "TDS did not redirect"
					return
				}
				land, err := internet.RoundTrip(&webtx.Request{
					URL: urlx.MustParse(resp.Location), UserAgent: webtx.UAChromeMac, ClientIP: webtx.IPResidential, Time: at,
				})
				if err != nil {
					errs <- resp.Location + ": " + err.Error()
					return
				}
				if land.Status != webtx.StatusOK {
					errs <- resp.Location + ": status " + strconv.Itoa(land.Status)
				}
			}(k)
		}
		close(start)
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("epoch %d: %s", epoch, e)
		}
	}
}

// The attack-page memo serves a repeat request from memory, counts hits
// and misses, and never holds more pages than the campaign can have
// live hosts, however many hosts it mints.
func TestPageMemoBounded(t *testing.T) {
	c, internet, clock, _ := newTestCampaign(t, FakeSoftware)
	reg := obs.New()
	c.SetObs(reg)
	start := clock.Now()
	builds := 0
	for h := 0; h < 40; h++ {
		at := start.Add(time.Duration(h) * time.Hour)
		redirect := get(t, internet, c.EntryURL(), webtx.UAChromeMac, at)
		first := get(t, internet, redirect.Location, webtx.UAChromeMac, at)
		again := get(t, internet, redirect.Location, webtx.UAChromeMac, at)
		if first.Status != webtx.StatusOK || again != first {
			t.Fatalf("hour %d: repeat fetch not served from the memo (status %d)", h, first.Status)
		}
		builds++
		c.mu.Lock()
		n := len(c.pages)
		c.mu.Unlock()
		if n > c.pageMemoCap() {
			t.Fatalf("hour %d: memo holds %d pages, cap %d", h, n, c.pageMemoCap())
		}
	}
	hits := reg.Counter("secamp_page_memo_hits_total").Value()
	misses := reg.Counter("secamp_page_memo_misses_total").Value()
	if hits < int64(builds) || misses == 0 || misses > int64(builds) {
		t.Fatalf("memo hits %d, misses %d over %d landing pairs", hits, misses, builds)
	}
	if minted := len(c.MintedDomains()); minted <= c.pageMemoCap() {
		t.Fatalf("only %d hosts minted; the test never exceeds the cap %d", minted, c.pageMemoCap())
	}
}
