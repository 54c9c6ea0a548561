// Package browser implements the instrumented headless browser at the
// core of the paper's crawler (Section 3.2): a multi-tab navigation
// engine over the synthetic web that
//
//   - follows HTTP redirect chains hop by hop, recording each;
//   - executes page scripts in an adscript VM whose every host-API call
//     is traced (the JSgraph-style "deep code instrumentation");
//   - supports popups (window.open), JS navigations (location.assign,
//     history.pushState), meta refresh, and script-driven DOM injection
//     (transparent overlay ads);
//   - bypasses page-locking tactics — JS modal dialogs and
//     onbeforeunload handlers — exactly as the paper patched Chromium to
//     do; without the bypass a locking page wedges the tab;
//   - emulates the four paper UA profiles including mobile device
//     metrics, and hides the automation flag (navigator.webdriver) when
//     driven through the stealth DevTools client.
//
// The byproduct of a browsing session is the event log consumed by
// internal/btgraph to rebuild ad-loading chains.
package browser

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/adscript"
	"repro/internal/dom"
	"repro/internal/imaging"
	"repro/internal/phash"
	"repro/internal/screenshot"
	"repro/internal/urlx"
	"repro/internal/vclock"
	"repro/internal/webtx"
)

// EventKind classifies browser log events.
type EventKind int

const (
	// EvNavigation is any URL change of a tab (initial load, redirect
	// hop, JS navigation, meta refresh).
	EvNavigation EventKind = iota
	// EvScriptFetch is an external script load.
	EvScriptFetch
	// EvAPICall is one traced host-API invocation.
	EvAPICall
	// EvPopup is a window.open that produced a new tab.
	EvPopup
	// EvDownload is a completed file download.
	EvDownload
	// EvDialogBypass records a neutralised page-locking attempt.
	EvDialogBypass
	// EvBlocked records a fetch suppressed by the ad-block filter.
	EvBlocked
	// EvError records a failed fetch (NXDOMAIN, HTTP error).
	EvError
)

var evNames = map[EventKind]string{
	EvNavigation: "navigation", EvScriptFetch: "script-fetch", EvAPICall: "api-call",
	EvPopup: "popup", EvDownload: "download", EvDialogBypass: "dialog-bypass",
	EvBlocked: "blocked", EvError: "error",
}

func (k EventKind) String() string {
	if s, ok := evNames[k]; ok {
		return s
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Navigation causes recorded on EvNavigation events; btgraph keys its
// edges on these.
const (
	CauseInitial      = "initial"
	CauseRedirect     = "http-redirect"
	CauseMetaRefresh  = "meta-refresh"
	CauseWindowOpen   = "window.open"
	CauseLocation     = "location.assign"
	CausePushState    = "history.pushState"
	CauseScriptSrc    = "script-src"
	CauseUserNavigate = "user"
)

// Event is one entry of the browser's instrumentation log.
type Event struct {
	Kind     EventKind
	Tab      int
	Time     time.Time
	From     string // URL context the event originated from
	To       string // target URL where applicable
	Cause    string
	API      adscript.APICall
	Download *webtx.Download
	Detail   string
}

// Options configure a browsing session.
type Options struct {
	UserAgent webtx.UserAgent
	ClientIP  webtx.IPClass
	// Stealth hides the automation flag: navigator.webdriver reads false.
	// This is the paper's source-level DevTools patch; without it, ad
	// networks that check the flag withhold their ads.
	Stealth bool
	// BypassDialogs neutralises alert/confirm/onbeforeunload page locks.
	// Without it a locking page wedges the tab.
	BypassDialogs bool
	// BlockFilter, when non-nil, suppresses any fetch it matches
	// (ad-blocker simulation).
	BlockFilter func(u urlx.URL) bool
	// DeviceEmulation sizes the viewport from the UA profile (Chrome
	// DevTools device mode).
	DeviceEmulation bool
	// MaxRedirects bounds a single navigation's redirect chain.
	MaxRedirects int
	// MaxTabs bounds popup fan-out per session.
	MaxTabs int
	// FetchCost is the virtual time a fetch consumes (session pacing).
	FetchCost time.Duration
	// ViewportScale divides the screenshot resolution by the given factor
	// (1 = native). Perceptual hashing is resolution-invariant, so large
	// experiments capture at reduced scale to save rendering time.
	ViewportScale int
	// Capture, when non-nil, is the shared content-addressed capture
	// cache ScreenshotHash consults before rendering. Output is
	// byte-identical with or without it; nil disables memoization (the
	// fused fast path is still used).
	Capture *screenshot.Cache
	// Scripts, when non-nil, is the shared compile-once program cache
	// consulted before parsing any page script. Execution is trace-
	// identical with or without it; nil parses per run.
	Scripts *adscript.ProgramCache
}

func (o *Options) fillDefaults() {
	if o.UserAgent.Name == "" {
		o.UserAgent = webtx.UAChromeMac
	}
	if o.MaxRedirects == 0 {
		o.MaxRedirects = 10
	}
	if o.MaxTabs == 0 {
		o.MaxTabs = 8
	}
}

// Browser is one browsing session. Not safe for concurrent use; the
// crawler farm gives each worker its own Browser.
type Browser struct {
	internet *webtx.Internet
	clock    *vclock.Clock
	opts     Options
	tabs     []*Tab
	events   []Event
	// pinned, when non-zero, is the session-local time: every request
	// timestamp, log event, and capture seed reads it instead of the live
	// clock, and paced fetches advance it instead of the clock. The
	// milker pins each probe to its tick instant so a coalesced group
	// observes exactly the time a tick-by-tick run would; the crawler
	// pins each session to its slot on the crawl timeline.
	pinned time.Time
	// spare is one tab retained across ResetSession for reuse: its
	// interpreter, listener map, and host environment survive, cutting
	// the per-session allocation churn of single-tab probe sessions.
	spare *Tab
}

// Tab is one open page.
type Tab struct {
	ID  int
	URL urlx.URL
	Doc *dom.Document
	// Status is the final HTTP status of the last navigation (0 on
	// resolution failure).
	Status    int
	Downloads []*webtx.Download

	browser      *Browser
	interp       *adscript.Interp
	env          *hostEnv // cached host-API objects, rebuilt when interp changes
	listeners    map[string][]listenerEntry
	beforeUnload []adscript.Value
	timeouts     []timeoutEntry
	blocked      bool // wedged by an unbypassed page lock
	suppressRef  bool
}

type listenerEntry struct {
	event string
	fn    adscript.Value
	// scriptURL is the script that registered the listener; handler
	// execution is attributed to it (the JSgraph-style provenance that
	// makes ad attribution work even for co-installed ad networks).
	scriptURL string
}

type timeoutEntry struct {
	fn        adscript.Value
	delay     time.Duration
	scriptURL string
}

// ErrTabBlocked is returned when an unbypassed page lock wedges a tab.
var ErrTabBlocked = errors.New("browser: tab blocked by page-locking dialog")

// New opens a browser session on the given internet and clock.
func New(internet *webtx.Internet, clock *vclock.Clock, opts Options) *Browser {
	opts.fillDefaults()
	return &Browser{internet: internet, clock: clock, opts: opts}
}

// Options returns the session options (read-only view).
func (b *Browser) Options() Options { return b.opts }

// Tabs returns the open tabs in creation order.
func (b *Browser) Tabs() []*Tab { return b.tabs }

// Events returns the instrumentation log.
func (b *Browser) Events() []Event { return b.events }

// PinTime puts the session on its own timeline starting at t: fetches,
// event timestamps, and capture noise seeds all read the pin, and each
// fetch advances the pin by FetchCost instead of advancing the shared
// clock. A zero t unpins, returning the session to the live virtual
// clock. Pinning lets a scheduler run sessions concurrently with each
// other and with clock advancement while each behaves exactly as if it
// ran alone from t: the milker pins probes to their tick (FetchCost 0,
// so the pin stays put); the crawler pins each session to its slot.
func (b *Browser) PinTime(t time.Time) { b.pinned = t }

// Now is the session-visible time: the pin when set, else the clock.
func (b *Browser) Now() time.Time { return b.now() }

func (b *Browser) now() time.Time {
	if !b.pinned.IsZero() {
		return b.pinned
	}
	return b.clock.Now()
}

// ResetSession clears per-session state — tabs, the event log, any time
// pin — so the Browser can serve a fresh session without reallocating.
// One healthy tab (not wedged, interpreter idle) is retained and handed
// back by the next Visit, preserving its interpreter and host
// environment across sessions.
func (b *Browser) ResetSession() {
	b.events = b.events[:0]
	b.pinned = time.Time{}
	for _, t := range b.tabs {
		if !t.blocked && (t.interp == nil || !t.interp.Active()) {
			b.spare = t
			break
		}
	}
	for i := range b.tabs {
		b.tabs[i] = nil
	}
	b.tabs = b.tabs[:0]
}

// Reset re-arms the browser for a new session under new options,
// reusing buffers, tab, and interpreter state where safe. Equivalent to
// a fresh New apart from allocation churn.
func (b *Browser) Reset(opts Options) {
	opts.fillDefaults()
	b.opts = opts
	b.ResetSession()
}

func (b *Browser) logEvent(e Event) {
	e.Time = b.now()
	b.events = append(b.events, e)
}

// Visit opens the URL in a fresh tab and returns it.
func (b *Browser) Visit(rawURL string) (*Tab, error) {
	u, err := urlx.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	tab := b.newTab()
	b.navigate(tab, u, "", CauseInitial)
	return tab, nil
}

func (b *Browser) newTab() *Tab {
	if s := b.spare; s != nil {
		b.spare = nil
		s.resetForReuse(len(b.tabs))
		b.tabs = append(b.tabs, s)
		return s
	}
	tab := &Tab{ID: len(b.tabs), browser: b, listeners: map[string][]listenerEntry{}}
	b.tabs = append(b.tabs, tab)
	return tab
}

// resetForReuse returns a recycled tab to its just-opened state. The
// interpreter and cached host environment are kept (runPageScripts
// resets interpreter globals per load); Downloads is dropped rather
// than truncated because callers may hold the previous slice.
func (t *Tab) resetForReuse(id int) {
	t.ID = id
	t.URL = urlx.URL{}
	t.Doc = nil
	t.Status = 0
	t.Downloads = nil
	clear(t.listeners)
	t.beforeUnload = nil
	t.timeouts = nil
	t.blocked = false
	t.suppressRef = false
}

// navigate drives the full load pipeline for one tab.
func (b *Browser) navigate(tab *Tab, u urlx.URL, referrer, cause string) {
	if tab.blocked {
		return
	}
	if !b.leaveCurrentPage(tab) {
		return // page lock wedged the tab
	}
	from := ""
	if !tab.URL.IsZero() {
		from = tab.URL.String()
	}
	b.logEvent(Event{Kind: EvNavigation, Tab: tab.ID, From: from, To: u.String(), Cause: cause})

	// Reset page state. The tab's interpreter is reused across page
	// loads — unless a script is mid-flight on it (a handler calling
	// location.assign lands here): resetting the environment under the
	// still-running handler would pull its globals away, so the old
	// interpreter is abandoned to finish on its own environment.
	tab.Doc = nil
	if tab.interp != nil && tab.interp.Active() {
		tab.interp = nil
	}
	// Clear in place: handler slices already pulled out of the map (the
	// click dispatcher snapshots before calling) stay valid, and the map
	// storage is reused across the session's page loads.
	clear(tab.listeners)
	tab.beforeUnload = nil
	tab.timeouts = nil
	tab.suppressRef = false

	for hop := 0; ; hop++ {
		if hop > b.opts.MaxRedirects {
			b.logEvent(Event{Kind: EvError, Tab: tab.ID, To: u.String(), Detail: "redirect limit exceeded"})
			tab.Status = 0
			return
		}
		if b.opts.BlockFilter != nil && b.opts.BlockFilter(u) {
			b.logEvent(Event{Kind: EvBlocked, Tab: tab.ID, To: u.String(), Detail: "ad-block filter"})
			tab.Status = 0
			return
		}
		resp, err := b.fetch(u, referrer)
		if err != nil {
			b.logEvent(Event{Kind: EvError, Tab: tab.ID, To: u.String(), Detail: err.Error()})
			tab.Status = 0
			return
		}
		if resp.Redirect() {
			next, err := u.Resolve(resp.Location)
			if err != nil {
				b.logEvent(Event{Kind: EvError, Tab: tab.ID, To: resp.Location, Detail: err.Error()})
				tab.Status = resp.Status
				return
			}
			b.logEvent(Event{Kind: EvNavigation, Tab: tab.ID, From: u.String(), To: next.String(), Cause: CauseRedirect})
			referrer = u.String()
			u = next
			continue
		}
		tab.URL = u
		tab.Status = resp.Status
		if resp.Download != nil {
			tab.Downloads = append(tab.Downloads, resp.Download)
			b.logEvent(Event{Kind: EvDownload, Tab: tab.ID, From: u.String(), Download: resp.Download})
			return
		}
		if resp.ReferrerPolicy == "no-referrer" {
			tab.suppressRef = true
		}
		if resp.Doc != nil {
			tab.Doc = resp.Doc
			b.runPageScripts(tab)
			// Meta refresh after scripts, as a short-delay navigation.
			if mr := resp.Doc.MetaRefresh; mr != nil && mr.DelaySeconds <= 30 {
				target, err := u.Resolve(mr.Target)
				if err == nil {
					b.navigate(tab, target, u.String(), CauseMetaRefresh)
				}
			}
		}
		return
	}
}

// leaveCurrentPage runs page-lock checks before navigating away; returns
// false when the tab is wedged.
func (b *Browser) leaveCurrentPage(tab *Tab) bool {
	if len(tab.beforeUnload) == 0 {
		return true
	}
	if b.opts.BypassDialogs {
		b.logEvent(Event{Kind: EvDialogBypass, Tab: tab.ID, From: tab.URL.String(), Detail: "onbeforeunload"})
		tab.beforeUnload = nil
		return true
	}
	tab.blocked = true
	b.logEvent(Event{Kind: EvError, Tab: tab.ID, From: tab.URL.String(), Detail: "tab wedged by onbeforeunload"})
	return false
}

func (b *Browser) fetch(u urlx.URL, referrer string) (*webtx.Response, error) {
	if b.opts.FetchCost > 0 {
		if b.pinned.IsZero() {
			b.clock.Advance(b.opts.FetchCost)
		} else {
			b.pinned = b.pinned.Add(b.opts.FetchCost)
		}
	}
	return b.internet.RoundTrip(&webtx.Request{
		URL:       u,
		Referrer:  referrer,
		UserAgent: b.opts.UserAgent,
		ClientIP:  b.opts.ClientIP,
		Time:      b.now(),
	})
}

// runPageScripts executes the document's scripts and then any queued
// timers.
func (b *Browser) runPageScripts(tab *Tab) {
	if tab.interp == nil {
		tab.interp = adscript.NewInterp()
		tab.interp.SetTracer(adscript.TracerFunc(func(c adscript.APICall) {
			b.logEvent(Event{Kind: EvAPICall, Tab: tab.ID, From: tab.URL.String(), API: c})
		}))
	} else {
		tab.interp.Reset()
	}
	b.installHostEnv(tab)
	pageURL := tab.URL
	for _, ref := range tab.Doc.Scripts {
		if tab.blocked || tab.Doc == nil {
			return
		}
		if ref.Src != "" {
			b.runExternalScript(tab, pageURL, ref.Src)
			continue
		}
		tab.interp.ScriptURL = pageURL.String()
		tab.interp.ResetBudget()
		if err := tab.interp.RunCached(b.opts.Scripts, ref.Code); err != nil {
			b.logEvent(Event{Kind: EvError, Tab: tab.ID, From: pageURL.String(), Detail: "inline script: " + err.Error()})
		}
	}
	b.runTimeouts(tab)
}

func (b *Browser) runExternalScript(tab *Tab, pageURL urlx.URL, src string) {
	u, err := pageURL.Resolve(src)
	if err != nil {
		b.logEvent(Event{Kind: EvError, Tab: tab.ID, From: pageURL.String(), Detail: "bad script src: " + err.Error()})
		return
	}
	if b.opts.BlockFilter != nil && b.opts.BlockFilter(u) {
		b.logEvent(Event{Kind: EvBlocked, Tab: tab.ID, From: pageURL.String(), To: u.String(), Detail: "ad-block filter"})
		return
	}
	b.logEvent(Event{Kind: EvScriptFetch, Tab: tab.ID, From: pageURL.String(), To: u.String(), Cause: CauseScriptSrc})
	resp, err := b.fetch(u, pageURL.String())
	if err != nil || resp.Status != webtx.StatusOK {
		detail := "script fetch failed"
		if err != nil {
			detail = err.Error()
		}
		b.logEvent(Event{Kind: EvError, Tab: tab.ID, To: u.String(), Detail: detail})
		return
	}
	prev := tab.interp.ScriptURL
	tab.interp.ScriptURL = u.String()
	tab.interp.ResetBudget()
	if err := tab.interp.RunCached(b.opts.Scripts, resp.Body); err != nil {
		b.logEvent(Event{Kind: EvError, Tab: tab.ID, From: u.String(), Detail: "script: " + err.Error()})
	}
	tab.interp.ScriptURL = prev
}

// runTimeouts drains queued setTimeout callbacks (virtual time: timers
// fire immediately after the main script, in delay order, like the
// paper's crawler letting short timers run before interacting).
func (b *Browser) runTimeouts(tab *Tab) {
	for len(tab.timeouts) > 0 {
		// Stable order: queue order (delays in the simulator are
		// informational).
		next := tab.timeouts[0]
		tab.timeouts = tab.timeouts[1:]
		if tab.blocked {
			return
		}
		tab.interp.ScriptURL = next.scriptURL
		tab.interp.ResetBudget()
		if _, err := tab.interp.Call(next.fn); err != nil {
			b.logEvent(Event{Kind: EvError, Tab: tab.ID, From: tab.URL.String(), Detail: "timeout: " + err.Error()})
		}
	}
}

// ClickResult describes what a synthetic click triggered.
type ClickResult struct {
	// Target is the element that received the click (nil if none).
	Target *dom.Element
	// OpenedTabs are tabs created by the click's handlers.
	OpenedTabs []*Tab
	// Navigated reports whether the clicked tab changed URL.
	Navigated bool
}

// ClickAt dispatches a click (or tap) at page coordinates. Handlers run
// for the hit element (by id) and for page-wide window listeners — the
// transparent-ad pattern.
func (b *Browser) ClickAt(tab *Tab, x, y int) (ClickResult, error) {
	if tab.blocked {
		return ClickResult{}, ErrTabBlocked
	}
	if tab.Doc == nil {
		return ClickResult{}, errors.New("browser: no document loaded")
	}
	before := tab.URL
	tabsBefore := len(b.tabs)
	res := ClickResult{Target: tab.Doc.HitTest(x, y)}

	var fns []listenerEntry
	if res.Target != nil {
		if id := res.Target.ID(); id != "" {
			for _, l := range tab.listeners[id] {
				if l.event == "click" {
					fns = append(fns, l)
				}
			}
		}
	}
	for _, l := range tab.listeners["window"] {
		if l.event == "click" {
			fns = append(fns, l)
		}
	}
	for _, l := range fns {
		if tab.blocked {
			break
		}
		tab.interp.ScriptURL = l.scriptURL
		tab.interp.ResetBudget()
		if _, err := tab.interp.Call(l.fn); err != nil {
			b.logEvent(Event{Kind: EvError, Tab: tab.ID, From: tab.URL.String(), Detail: "click handler: " + err.Error()})
		}
	}
	b.runTimeouts(tab)

	for _, t := range b.tabs[tabsBefore:] {
		res.OpenedTabs = append(res.OpenedTabs, t)
	}
	res.Navigated = tab.URL != before
	return res, nil
}

// ClickElement clicks the centre of an element.
func (b *Browser) ClickElement(tab *Tab, el *dom.Element) (ClickResult, error) {
	x, y := el.Center()
	return b.ClickAt(tab, x, y)
}

// Screenshot rasterises the tab with the session's viewport. Wedged tabs
// cannot be captured — the reason the paper had to bypass dialog locks.
func (b *Browser) Screenshot(tab *Tab) (*imaging.Image, error) {
	opts, err := b.captureOpts(tab)
	if err != nil {
		return nil, err
	}
	if c := b.opts.Capture; c != nil {
		return c.Image(tab.Doc, opts), nil
	}
	return screenshot.Render(tab.Doc, opts), nil
}

// ScreenshotHash returns the perceptual hash of the tab's capture
// without handing pixels to the caller — the fast path for the crawler
// and milker, which only ever hash. The result is bit-identical to
// phash.DHash of the Screenshot image; with a Capture cache configured,
// repeat captures of content-identical pages are memoized.
func (b *Browser) ScreenshotHash(tab *Tab) (phash.Hash, error) {
	opts, err := b.captureOpts(tab)
	if err != nil {
		return phash.Hash{}, err
	}
	if c := b.opts.Capture; c != nil {
		return c.Hash(tab.Doc, opts), nil
	}
	return screenshot.CaptureHash(tab.Doc, opts), nil
}

// captureOpts resolves the tab's capture geometry and noise stream.
func (b *Browser) captureOpts(tab *Tab) (screenshot.Options, error) {
	if tab.blocked {
		return screenshot.Options{}, ErrTabBlocked
	}
	if tab.Doc == nil {
		return screenshot.Options{}, errors.New("browser: no document loaded")
	}
	// Capture the full document when it declares its size (screenshots of
	// the same template must align across device profiles for perceptual
	// clustering); fall back to the viewport for size-less documents.
	w, h := tab.Doc.Root.W, tab.Doc.Root.H
	if w <= 0 || h <= 0 {
		w, h = screenshot.DefaultWidth, screenshot.DefaultHeight
		if b.opts.DeviceEmulation {
			w, h = b.opts.UserAgent.ScreenW, b.opts.UserAgent.ScreenH
		}
	}
	if s := b.opts.ViewportScale; s > 1 {
		w, h = w/s, h/s
	}
	return screenshot.Options{
		Width: w, Height: h,
		NoiseAmp:  2,
		NoiseSeed: hashURL(tab.URL.String()) ^ uint64(b.now().UnixNano()/int64(time.Hour)),
	}, nil
}

// Blocked reports whether the tab is wedged by a page lock.
func (t *Tab) Blocked() bool { return t.blocked }

func hashURL(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
