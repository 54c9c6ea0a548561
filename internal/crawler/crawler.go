// Package crawler implements the paper's crawler farm (Section 3.2):
// parallel workers drive stealth-automated browsers through publisher
// websites, click the largest images/iframes (and transparent overlays)
// to trigger pop-up/pop-under ads, record screenshots and perceptual
// hashes of every third-party landing page, interact with landing pages
// to collect file downloads, and keep the full instrumentation log for
// ad-loading reconstruction.
package crawler

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/adscript"
	"repro/internal/browser"
	"repro/internal/devtools"
	"repro/internal/dom"
	"repro/internal/obs"
	"repro/internal/parking"
	"repro/internal/phash"
	"repro/internal/screenshot"
	"repro/internal/urlx"
	"repro/internal/vclock"
	"repro/internal/webtx"
)

// Config tunes the farm. Zero values get paper-flavoured defaults.
type Config struct {
	// UserAgents to rotate per publisher (default: the paper's four).
	UserAgents []webtx.UserAgent
	// Workers is the number of parallel crawler instances, capped at
	// GOMAXPROCS. Sessions are byte-identical at any width: each runs on
	// its own slot of the crawl timeline (see CrawlStream).
	Workers int
	// MaxClickTargets bounds how many candidate elements are clicked per
	// session.
	MaxClickTargets int
	// RepeatClicks re-clicks a productive element to trigger stacked ads
	// from co-installed networks.
	RepeatClicks int
	// MaxAdsPerSession stops a session once enough ads were exercised.
	MaxAdsPerSession int
	// FetchCost is the virtual time per fetch (paces the virtual crawl
	// window; the paper spent ~2 minutes per session).
	FetchCost time.Duration
	// DisableStealth / DisableDialogBypass turn off the anti-cloaking
	// instrumentations (navigator.webdriver removal and page-locking
	// dialog neutralisation), which are on by default; they exist for
	// the ablation benches.
	DisableStealth      bool
	DisableDialogBypass bool
	// DeviceEmulation applies mobile screen metrics for mobile UAs.
	DeviceEmulation bool
	// ViewportScale reduces screenshot resolution (1 = native).
	ViewportScale int
	// BlockFilter simulates an ad-blocker extension.
	BlockFilter func(u urlx.URL) bool
	// InteractWithLandings clicks once inside each landing page (file
	// download collection). Default on.
	DisableLandingInteraction bool
	// Obs receives farm metrics (sessions per worker, clicks, ads
	// triggered, cloaking denials, screenshot hashes). Nil = no-op.
	Obs *obs.Registry
	// Capture is the shared content-addressed capture cache. All workers
	// may share one instance; landing hashes are byte-identical with or
	// without it. Nil disables memoization.
	Capture *screenshot.Cache
	// Scripts is the shared compile-once program cache. All workers may
	// share one instance; API-call traces are byte-identical with or
	// without it. Nil parses per script run.
	Scripts *adscript.ProgramCache
}

func (c *Config) fillDefaults() {
	if len(c.UserAgents) == 0 {
		c.UserAgents = webtx.AllUserAgents
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	// More workers than runnable threads only adds scheduling and GC
	// churn; output does not depend on the width, so capping is free.
	if max := runtime.GOMAXPROCS(0); c.Workers > max {
		c.Workers = max
	}
	if c.MaxClickTargets <= 0 {
		c.MaxClickTargets = 3
	}
	if c.RepeatClicks <= 0 {
		c.RepeatClicks = 2
	}
	if c.MaxAdsPerSession <= 0 {
		c.MaxAdsPerSession = 6
	}
	if c.FetchCost == 0 {
		c.FetchCost = 2 * time.Second
	}
	if c.ViewportScale <= 0 {
		c.ViewportScale = 4
	}
}

// Task is one publisher to crawl, with the IP vantage point to use (the
// paper crawled Propeller/Clickadu publishers from residential lines).
type Task struct {
	Host     string
	ClientIP webtx.IPClass
}

// Landing is one third-party landing page reached by clicking an ad.
type Landing struct {
	URL    urlx.URL
	E2LD   string
	Status int
	// Hash is the perceptual hash of the landing screenshot (zero when
	// the page could not be captured).
	Hash    phash.Hash
	Hashed  bool
	Mobile  bool
	Blocked bool // page wedged the tab (no bypass)
	// Title is the landing document title.
	Title string
	// ParkedScore is the parked-domain detector's score for the page
	// (the automated filter the paper leaves to future work).
	ParkedScore float64
	// Downloads collected by interacting with the page.
	Downloads []*webtx.Download
	// Behaviour holds the page's observed SE signals, derived from the
	// instrumentation log of the landing tab.
	Behaviour Behaviour
}

// Behaviour summarises the SE-relevant signals a landing page exhibited —
// the machine-readable form of the paper's triage inspection (Section
// 4.3).
type Behaviour struct {
	// Alerts counts modal dialogs the page raised (bypassed or not).
	Alerts int
	// BeforeUnload reports an onbeforeunload page-lock handler.
	BeforeUnload bool
	// NotificationRequest reports a push-notification permission ask.
	NotificationRequest bool
	// OpenedSignup reports a popup to a third-party signup/registration
	// page triggered by interaction.
	OpenedSignup bool
	// Downloaded reports a file download triggered by interaction.
	Downloaded bool
}

// Session is the record of one (publisher, UA) crawl.
type Session struct {
	Publisher string
	UserAgent webtx.UserAgent
	ClientIP  webtx.IPClass
	// PublisherOK reports whether the publisher page loaded.
	PublisherOK bool
	Landings    []Landing
	// Events is the merged instrumentation log of every browser used in
	// the session.
	Events []browser.Event
}

// Crawler runs sessions against one internet.
type Crawler struct {
	internet *webtx.Internet
	clock    *vclock.Clock
	cfg      Config
	met      farmMetrics
}

// farmMetrics are the farm's pre-resolved handles; all nil (one nil
// check per update) when cfg.Obs is nil.
type farmMetrics struct {
	clicks   *obs.Counter // crawler_clicks_total
	ads      *obs.Counter // crawler_ads_total: landings reached via ads
	denied   *obs.Counter // crawler_denied_total: publisher page refused/cloaked
	hashes   *obs.Counter // crawler_hashes_total: screenshots dhashed
	landings *obs.Histogram
}

// New builds a crawler farm front-end.
func New(internet *webtx.Internet, clock *vclock.Clock, cfg Config) *Crawler {
	cfg.fillDefaults()
	return &Crawler{internet: internet, clock: clock, cfg: cfg, met: farmMetrics{
		clicks:   cfg.Obs.Counter("crawler_clicks_total"),
		ads:      cfg.Obs.Counter("crawler_ads_total"),
		denied:   cfg.Obs.Counter("crawler_denied_total"),
		hashes:   cfg.Obs.Counter("crawler_hashes_total"),
		landings: cfg.Obs.Histogram("crawler_landings_per_session"),
	}}
}

// Config returns the effective configuration.
func (c *Crawler) Config() Config { return c.cfg }

// CrawlAll runs every (task, UA) session across the worker pool and
// returns all session records, in deterministic (task, UA) order.
func (c *Crawler) CrawlAll(tasks []Task) []*Session {
	out, _ := c.CrawlAllContext(context.Background(), tasks)
	return out
}

// CrawlAllContext is CrawlAll with cancellation: once ctx is done no new
// session is started (in-flight sessions finish — a session is seconds
// of virtual work, not wall time), the pool is drained, and ctx.Err() is
// returned alongside the sessions completed so far. Unstarted slots stay
// nil, so callers that keep a partial result must filter them.
func (c *Crawler) CrawlAllContext(ctx context.Context, tasks []Task) ([]*Session, error) {
	events, total := c.CrawlStream(ctx, tasks)
	out := make([]*Session, total)
	for ev := range events {
		out[ev.Index] = ev.Session
	}
	return out, ctx.Err()
}

// SessionEvent is one finished crawl session as emitted by CrawlStream.
// Index is the session's slot in the deterministic (task, UA) order that
// CrawlAll returns.
type SessionEvent struct {
	Index   int
	Session *Session
}

// slotFetches sizes a session's slot on the crawl timeline: the mean
// session makes about 22 fetches (~26,300 requests over 1,200 sessions
// when the default world's crawl is capped at 300 publishers), so slots
// of 22 × FetchCost keep the crawl window as long as a crawl whose
// fetches all advance one shared clock.
const slotFetches = 22

// CrawlStream runs every (task, UA) session across the worker pool and
// emits each session on the returned channel the moment its worker
// finishes it — in completion order, not slot order; consumers that need
// the deterministic ordering commit by Index. total is the number of
// session slots (len(tasks) × user agents). The channel is buffered for
// all slots (workers never block on a slow consumer) and is closed once
// the pool drains. Once ctx is done no new session starts, so a
// cancelled stream emits exactly the contiguous prefix of slots that
// were fed before cancellation.
//
// Every session runs on its own virtual timeline: slot i starts at
// crawlStart + i × slot, where crawlStart is the clock at the call and
// slot is slotFetches × FetchCost, and advances only its own time per
// fetch. Together with the
// synthetic web's request-keyed draws this makes each session a pure
// function of its slot, so the sessions are byte-identical at any
// worker count. The shared clock is moved to the end of the crawl
// window (crawlStart + total × slot) before the channel closes.
func (c *Crawler) CrawlStream(ctx context.Context, tasks []Task) (<-chan SessionEvent, int) {
	type job struct {
		idx  int
		task Task
		ua   webtx.UserAgent
	}
	start, slot := c.clock.Now(), slotFetches*c.cfg.FetchCost
	total := len(tasks) * len(c.cfg.UserAgents)
	jobs := make(chan job)
	events := make(chan SessionEvent, total)
	var wg sync.WaitGroup
	for w := 0; w < c.cfg.Workers; w++ {
		sessions := c.cfg.Obs.Counter("crawler_sessions_total", "worker="+strconv.Itoa(w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One browser per worker, re-armed per navigation, as the
			// milker's client pool does.
			client := devtools.NewClient(c.internet, c.clock, devtools.ClientConfig{})
			for j := range jobs {
				s, _ := c.runSession(client, j.task, j.ua, start.Add(time.Duration(j.idx)*slot))
				events <- SessionEvent{Index: j.idx, Session: s}
				sessions.Inc()
			}
		}()
	}
	go func() {
		i := 0
	feed:
		for _, t := range tasks {
			for _, ua := range c.cfg.UserAgents {
				if ctx.Err() != nil {
					break feed
				}
				jobs <- job{idx: i, task: t, ua: ua}
				i++
			}
		}
		close(jobs)
		wg.Wait()
		c.clock.AdvanceTo(start.Add(time.Duration(total) * slot))
		close(events)
	}()
	return events, total
}

// RunSession crawls one publisher with one UA, starting at the clock's
// current instant, and advances the clock past the session's fetches.
func (c *Crawler) RunSession(task Task, ua webtx.UserAgent) *Session {
	client := devtools.NewClient(c.internet, c.clock, devtools.ClientConfig{})
	s, end := c.runSession(client, task, ua, c.clock.Now())
	c.clock.AdvanceTo(end)
	return s
}

// runSession crawls one publisher with one UA on a session-local
// timeline starting at start, re-arming client for every navigation.
// It returns the session and the session-local time it ended at.
func (c *Crawler) runSession(client *devtools.Client, task Task, ua webtx.UserAgent, start time.Time) (*Session, time.Time) {
	s := &Session{Publisher: task.Host, UserAgent: ua, ClientIP: task.ClientIP}
	defer func() { c.met.landings.Observe(int64(len(s.Landings))) }()
	cfg := c.clientConfig(task, ua)
	now := start
	adsTriggered := 0
	targetIdx := 0

	for adsTriggered < c.cfg.MaxAdsPerSession {
		// A restart is a fresh browser that carries the session's time.
		client.Reset(cfg)
		client.PinTime(now)
		tab, err := client.Navigate("http://" + task.Host + "/")
		if err != nil || tab.Status != webtx.StatusOK || tab.Doc == nil {
			// The publisher refused us: NXDOMAIN, error page, or an
			// IP-cloaking denial (the paper's residential-only networks).
			c.met.denied.Inc()
			s.Events = append(s.Events, client.Events()...)
			return s, client.Now()
		}
		s.PublisherOK = true
		clickables := tab.Doc.Clickables()
		if targetIdx >= len(clickables) || targetIdx >= c.cfg.MaxClickTargets {
			s.Events = append(s.Events, client.Events()...)
			return s, client.Now()
		}
		el := clickables[targetIdx]
		navigatedAway := false
		for r := 0; r < c.cfg.RepeatClicks && adsTriggered < c.cfg.MaxAdsPerSession; r++ {
			c.met.clicks.Inc()
			res, err := client.ClickElement(tab, el)
			if err != nil {
				break
			}
			for _, popup := range res.OpenedTabs {
				if popup.URL.Host == task.Host {
					continue // same-site popup is not an ad
				}
				s.Landings = append(s.Landings, c.recordLanding(client, popup, ua))
				adsTriggered++
				c.met.ads.Inc()
			}
			if res.Navigated {
				// The tab itself left the publisher: record it, then
				// restart the browser and move to the next target (the
				// paper re-opens the browser and reloads the page).
				if tab.URL.Host != task.Host {
					s.Landings = append(s.Landings, c.recordLanding(client, tab, ua))
					adsTriggered++
					c.met.ads.Inc()
				}
				navigatedAway = true
				break
			}
		}
		s.Events = append(s.Events, client.Events()...)
		now = client.Now()
		targetIdx++
		if !navigatedAway && targetIdx >= min(len(clickables), c.cfg.MaxClickTargets) {
			return s, now
		}
	}
	return s, now
}

// clientConfig is the automation profile of one (task, UA) session.
func (c *Crawler) clientConfig(task Task, ua webtx.UserAgent) devtools.ClientConfig {
	return devtools.ClientConfig{
		UserAgent:       ua,
		ClientIP:        task.ClientIP,
		StealthPatch:    !c.cfg.DisableStealth,
		DialogBypass:    !c.cfg.DisableDialogBypass,
		DeviceEmulation: c.cfg.DeviceEmulation && ua.Mobile,
		BlockFilter:     c.cfg.BlockFilter,
		FetchCost:       c.cfg.FetchCost,
		ViewportScale:   c.cfg.ViewportScale,
		Capture:         c.cfg.Capture,
		Scripts:         c.cfg.Scripts,
	}
}

// recordLanding captures a landing page: screenshot hash, downloads from
// one interaction, final URL.
func (c *Crawler) recordLanding(client *devtools.Client, tab *browser.Tab, ua webtx.UserAgent) Landing {
	l := Landing{
		URL:    tab.URL,
		E2LD:   urlx.E2LD(tab.URL.Host),
		Status: tab.Status,
		Mobile: ua.Mobile,
	}
	if tab.Blocked() {
		l.Blocked = true
		return l
	}
	if tab.Doc == nil {
		l.Downloads = tab.Downloads
		return l
	}
	l.Title = tab.Doc.Title
	_, l.ParkedScore = parking.NewDetector().Classify(tab.Doc)
	if h, err := client.CaptureScreenshotHash(tab); err == nil {
		l.Hash = h
		l.Hashed = true
		c.met.hashes.Inc()
	}
	if !c.cfg.DisableLandingInteraction {
		c.interact(client, tab)
	}
	l.Downloads = tab.Downloads
	l.Blocked = tab.Blocked()
	l.Behaviour = behaviourFromEvents(client.Events(), tab)
	return l
}

// behaviourFromEvents distils the landing tab's instrumentation log into
// SE signals.
func behaviourFromEvents(events []browser.Event, tab *browser.Tab) Behaviour {
	var bh Behaviour
	for _, e := range events {
		if e.Tab != tab.ID {
			continue
		}
		switch e.Kind {
		case browser.EvDialogBypass:
			if e.Detail == "alert" || e.Detail == "confirm" {
				bh.Alerts++
			}
			if e.Detail == "onbeforeunload" {
				bh.BeforeUnload = true
			}
		case browser.EvAPICall:
			switch e.API.Name {
			case "window.alert", "window.confirm":
				bh.Alerts++
			case "window.onbeforeunload":
				bh.BeforeUnload = true
			case "notification.request":
				bh.NotificationRequest = true
			case "window.open":
				if len(e.API.Args) > 0 && strings.Contains(e.API.Args[0], "signup") {
					bh.OpenedSignup = true
				}
			}
		case browser.EvDownload:
			bh.Downloaded = true
		}
	}
	// Alerts are double-counted when both the API call and its bypass are
	// logged; halve conservatively.
	if bh.Alerts > 1 {
		bh.Alerts = (bh.Alerts + 1) / 2
	}
	return bh
}

// interact performs the paper's "simple interactions" on an SE landing
// page: click the most prominent button, falling back to the page
// centre. This is what triggers fake-software downloads.
func (c *Crawler) interact(client *devtools.Client, tab *browser.Tab) {
	var target *dom.Element
	best := -1
	tab.Doc.Root.Walk(func(el *dom.Element) bool {
		if el.Tag == "button" && el.Area() > best {
			best = el.Area()
			target = el
		}
		return true
	})
	if target != nil {
		_, _ = client.ClickElement(tab, target)
		return
	}
	if tab.Doc.Root.W > 0 {
		_, _ = client.Click(tab, tab.Doc.Root.W/2, tab.Doc.Root.H/2)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
