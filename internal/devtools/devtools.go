// Package devtools is the custom browser-automation client of Section
// 3.2: the paper drives its instrumented Chromium through the DevTools
// protocol instead of Selenium/PhantomJS because those tools are trivially
// fingerprinted by anti-bot JS. Even DevTools sets navigator.webdriver
// while automating; the paper patched the browser to remove the flag.
//
// This package mirrors that architecture over the simulated browser: a
// command-oriented client that owns a Browser instance, with the stealth
// patch (webdriver flag removal) and page-lock bypass modelled as client
// capabilities. The crawler farm talks only to this client.
package devtools

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/adscript"
	"repro/internal/browser"
	"repro/internal/dom"
	"repro/internal/imaging"
	"repro/internal/phash"
	"repro/internal/screenshot"
	"repro/internal/urlx"
	"repro/internal/vclock"
	"repro/internal/webtx"
)

// ClientConfig selects the automation profile.
type ClientConfig struct {
	UserAgent webtx.UserAgent
	ClientIP  webtx.IPClass
	// StealthPatch removes navigator.webdriver (the paper's source-level
	// Chromium patch). Off = stock DevTools behaviour, detectable by ad
	// networks.
	StealthPatch bool
	// DialogBypass neutralises page-locking dialogs (the paper's second
	// instrumentation).
	DialogBypass bool
	// DeviceEmulation enables Chrome device mode for mobile UAs.
	DeviceEmulation bool
	// BlockFilter simulates an ad-blocker extension.
	BlockFilter func(u urlx.URL) bool
	// FetchCost paces sessions on the virtual clock.
	FetchCost time.Duration
	// ViewportScale divides screenshot resolution (1 = native).
	ViewportScale int
	// Capture shares a content-addressed capture cache across clients;
	// nil leaves captures unmemoized (identical output either way).
	Capture *screenshot.Cache
	// Scripts shares a compile-once program cache across clients; nil
	// parses per script run (identical traces either way).
	Scripts *adscript.ProgramCache
}

// Client is one automation session over one browser.
type Client struct {
	cfg ClientConfig
	b   *browser.Browser
}

// NewClient opens a browser with the configured automation profile.
func NewClient(internet *webtx.Internet, clock *vclock.Clock, cfg ClientConfig) *Client {
	return &Client{cfg: cfg, b: browser.New(internet, clock, optsFor(cfg))}
}

func optsFor(cfg ClientConfig) browser.Options {
	return browser.Options{
		UserAgent:       cfg.UserAgent,
		ClientIP:        cfg.ClientIP,
		Stealth:         cfg.StealthPatch,
		BypassDialogs:   cfg.DialogBypass,
		DeviceEmulation: cfg.DeviceEmulation,
		BlockFilter:     cfg.BlockFilter,
		FetchCost:       cfg.FetchCost,
		ViewportScale:   cfg.ViewportScale,
		Capture:         cfg.Capture,
		Scripts:         cfg.Scripts,
	}
}

// Reset re-arms the client for a new session under a (possibly
// different) automation profile, reusing the underlying browser's
// buffers and interpreter state. Pooled clients call this between
// sessions instead of paying NewClient per session.
func (c *Client) Reset(cfg ClientConfig) {
	c.cfg = cfg
	c.b.Reset(optsFor(cfg))
}

// PinTime puts the session on its own timeline from t (zero unpins);
// see browser.Browser.PinTime. Schedulers that overlap sessions pin
// each session to its nominal instant.
func (c *Client) PinTime(t time.Time) { c.b.PinTime(t) }

// Now is the session-visible time: the pin (advanced by paced fetches)
// when set, else the live clock.
func (c *Client) Now() time.Time { return c.b.Now() }

// Navigate loads a URL in a new tab ("Page.navigate").
func (c *Client) Navigate(url string) (*browser.Tab, error) {
	return c.b.Visit(url)
}

// Click dispatches a trusted input event ("Input.dispatchMouseEvent").
func (c *Client) Click(tab *browser.Tab, x, y int) (browser.ClickResult, error) {
	return c.b.ClickAt(tab, x, y)
}

// ClickElement clicks an element's centre.
func (c *Client) ClickElement(tab *browser.Tab, el *dom.Element) (browser.ClickResult, error) {
	return c.b.ClickElement(tab, el)
}

// CaptureScreenshot rasterises a tab ("Page.captureScreenshot").
func (c *Client) CaptureScreenshot(tab *browser.Tab) (*imaging.Image, error) {
	return c.b.Screenshot(tab)
}

// CaptureScreenshotHash returns the perceptual hash of the tab's
// capture without materialising pixels — the capture fast path for
// callers that only cluster on hashes.
func (c *Client) CaptureScreenshotHash(tab *browser.Tab) (phash.Hash, error) {
	return c.b.ScreenshotHash(tab)
}

// Events returns the instrumentation log collected so far.
func (c *Client) Events() []browser.Event { return c.b.Events() }

// Tabs returns the session's open tabs.
func (c *Client) Tabs() []*browser.Tab { return c.b.Tabs() }

// Browser exposes the underlying browser for advanced callers.
func (c *Client) Browser() *browser.Browser { return c.b }

// WebdriverVisible reports whether page JS can detect the automation: the
// anti-bot check succeeds exactly when the stealth patch is off.
func (c *Client) WebdriverVisible() bool { return !c.cfg.StealthPatch }

// ErrNoTab is returned by helpers that need an open tab.
var ErrNoTab = errors.New("devtools: no open tab")

// FrontTab returns the most recently opened tab.
func (c *Client) FrontTab() (*browser.Tab, error) {
	tabs := c.b.Tabs()
	if len(tabs) == 0 {
		return nil, ErrNoTab
	}
	return tabs[len(tabs)-1], nil
}

// String describes the client profile for logs.
func (c *Client) String() string {
	return fmt.Sprintf("devtools{ua=%s ip=%s stealth=%v bypass=%v}",
		c.cfg.UserAgent.Name, c.cfg.ClientIP, c.cfg.StealthPatch, c.cfg.DialogBypass)
}
