package browser

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/adnet"
	"repro/internal/dom"
	"repro/internal/vclock"
	"repro/internal/webtx"
)

// eventSummaries projects the log onto its behaviour-defining fields.
func eventSummaries(events []Event) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = fmt.Sprintf("%s|%s|%s|%s|%s|%s", e.Kind, e.From, e.To, e.Cause, e.Detail, e.Time.Format(time.RFC3339))
	}
	return out
}

// TestResetSessionReusesTab: after ResetSession the next Visit must hand
// back the recycled tab (interpreter and host env retained) with all
// per-session state cleared.
func TestResetSessionReusesTab(t *testing.T) {
	w := newTestWorld(t, adnet.SeedSpecs()[2])
	b := New(w.internet, w.clock, defaultOpts())
	tab1, err := b.Visit("http://pub-site.com/")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events()) == 0 {
		t.Fatal("first session produced no events")
	}
	b.ResetSession()
	if len(b.Events()) != 0 || len(b.Tabs()) != 0 {
		t.Fatalf("session state survived reset: %d events, %d tabs", len(b.Events()), len(b.Tabs()))
	}
	tab2, err := b.Visit("http://pub-site.com/")
	if err != nil {
		t.Fatal(err)
	}
	if tab2 != tab1 {
		t.Fatal("second session did not recycle the spare tab")
	}
	if tab2.ID != 0 || tab2.Status != webtx.StatusOK || tab2.Doc == nil {
		t.Fatalf("recycled tab state: %+v", tab2)
	}
}

// TestResetEquivalence: a browser reused via Reset must produce the
// byte-identical event log a fresh browser produces for the same
// session — the contract the milker's client pool depends on.
func TestResetEquivalence(t *testing.T) {
	w := newTestWorld(t, adnet.SeedSpecs()[2])

	fresh := New(w.internet, w.clock, defaultOpts())
	if _, err := fresh.Visit("http://pub-site.com/"); err != nil {
		t.Fatal(err)
	}
	want := eventSummaries(fresh.Events())

	reused := New(w.internet, w.clock, defaultOpts())
	for round := 0; round < 3; round++ {
		reused.Reset(defaultOpts())
		if _, err := reused.Visit("http://pub-site.com/"); err != nil {
			t.Fatal(err)
		}
		got := eventSummaries(reused.Events())
		if len(got) != len(want) {
			t.Fatalf("round %d: %d events, want %d\ngot %v\nwant %v", round, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d event %d:\n  got  %s\n  want %s", round, i, got[i], want[i])
			}
		}
	}
}

// TestPinTime: a pinned session must stamp every event and request with
// the pinned instant regardless of the live clock, and unpinning must
// return to clock time.
func TestPinTime(t *testing.T) {
	internet := webtx.NewInternet()
	clock := vclock.New()
	var reqTime time.Time
	internet.Register("pin.test", webtx.HandlerFunc(func(req *webtx.Request) *webtx.Response {
		reqTime = req.Time
		return webtx.HTMLPage("<html></html>")
	}))

	b := New(internet, clock, defaultOpts())
	pin := vclock.Epoch.Add(5 * time.Hour)
	b.PinTime(pin)
	if _, err := b.Visit("http://pin.test/"); err != nil {
		t.Fatal(err)
	}
	if !reqTime.Equal(pin) {
		t.Fatalf("request time %v, want pinned %v", reqTime, pin)
	}
	for _, e := range b.Events() {
		if !e.Time.Equal(pin) {
			t.Fatalf("event %v stamped %v, want pinned %v", e.Kind, e.Time, pin)
		}
	}
	b.PinTime(time.Time{})
	if _, err := b.Visit("http://pin.test/"); err != nil {
		t.Fatal(err)
	}
	if !reqTime.Equal(clock.Now()) {
		t.Fatalf("unpinned request time %v, want clock %v", reqTime, clock.Now())
	}
}

// TestPinnedSessionPacesItsOwnTimeline: with a fetch cost, a pinned
// session advances its own pin per fetch and leaves the shared clock
// alone, so concurrent sessions never interleave virtual time.
func TestPinnedSessionPacesItsOwnTimeline(t *testing.T) {
	internet := webtx.NewInternet()
	clock := vclock.New()
	var times []time.Time
	internet.Register("pace.test", webtx.HandlerFunc(func(req *webtx.Request) *webtx.Response {
		times = append(times, req.Time)
		return webtx.HTMLPage("<html></html>")
	}))
	opts := defaultOpts()
	opts.FetchCost = 2 * time.Second
	b := New(internet, clock, opts)
	pin := vclock.Epoch.Add(time.Hour)
	b.PinTime(pin)
	for i := 0; i < 3; i++ {
		if _, err := b.Visit("http://pace.test/"); err != nil {
			t.Fatal(err)
		}
	}
	for i, got := range times {
		if want := pin.Add(time.Duration(i+1) * opts.FetchCost); !got.Equal(want) {
			t.Fatalf("fetch %d at %v, want %v", i, got, want)
		}
	}
	if !b.Now().Equal(pin.Add(3 * opts.FetchCost)) {
		t.Fatalf("session time %v after 3 fetches", b.Now())
	}
	if !clock.Now().Equal(vclock.Epoch) {
		t.Fatalf("shared clock moved to %v", clock.Now())
	}
}

// TestHostEnvRestoredAcrossLoads: a page script that clobbers a host
// object field must not poison the next page load in the same tab — the
// cached env restores its pristine fields per install. Page A clobbers
// window.alert and meta-refreshes (same tab, same interpreter) to page
// B, whose alert call must still reach the host dialog handler.
func TestHostEnvRestoredAcrossLoads(t *testing.T) {
	internet := webtx.NewInternet()
	clock := vclock.New()
	page := func(title string, script string, refresh *dom.MetaRefresh) *webtx.Response {
		root := dom.NewElement("body")
		root.W, root.H = 800, 600
		doc := &dom.Document{Title: title, Root: root,
			Scripts: []dom.ScriptRef{{Code: script}}, MetaRefresh: refresh}
		return webtx.DocumentPage(doc)
	}
	internet.Register("site-a.test", webtx.HandlerFunc(func(req *webtx.Request) *webtx.Response {
		return page("a", `window.alert = "clobbered";`,
			&dom.MetaRefresh{DelaySeconds: 1, Target: "http://site-b.test/"})
	}))
	internet.Register("site-b.test", webtx.HandlerFunc(func(req *webtx.Request) *webtx.Response {
		return page("b", `window.alert("hello");`, nil)
	}))

	b := New(internet, clock, defaultOpts())
	tab, err := b.Visit("http://site-a.test/")
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.URL.Host; got != "site-b.test" {
		t.Fatalf("meta refresh did not land on site-b: %s", got)
	}
	bypass := false
	for _, e := range b.Events() {
		if e.Kind == EvError {
			t.Fatalf("script error after env restore: %+v", e)
		}
		if e.Kind == EvDialogBypass && e.Detail == "alert" {
			bypass = true
		}
	}
	if !bypass {
		t.Fatal("page B's alert never reached the host handler — clobbered field leaked across loads")
	}
}
