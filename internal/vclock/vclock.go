// Package vclock implements a deterministic virtual clock.
//
// The paper's milking experiment runs 505 sources every 15 minutes for 14
// days with Safe-Browsing lookups every 30 minutes, followed by a final
// lookup two months later. Reproducing that on wall-clock time is
// impossible in a test run, so all time-dependent components of this
// repository (milker, GSB lag model, VirusTotal rescans, domain-rotation
// schedules) read time exclusively from a vclock.Clock. The code that
// runs an experiment advances it explicitly (the milker walks its
// timetable with AdvanceTo), and it only moves forward.
package vclock

import (
	"sync"
	"time"
)

// Epoch is the instant at which every simulation starts. The concrete date
// is arbitrary but fixed so logs and goldens are stable.
var Epoch = time.Date(2019, time.March, 1, 0, 0, 0, 0, time.UTC)

// Clock is a virtual clock, safe for concurrent use. The zero value is
// not usable; use New.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// New returns a Clock positioned at Epoch.
func New() *Clock {
	return &Clock{now: Epoch}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since returns the virtual time elapsed since t.
func (c *Clock) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// AdvanceTo moves the clock to t. A t before the current time is a
// no-op: virtual time never flows backwards.
func (c *Clock) AdvanceTo(t time.Time) {
	c.mu.Lock()
	if t.After(c.now) {
		c.now = t
	}
	c.mu.Unlock()
}

// Advance moves the clock forward by d; a negative d is a no-op.
func (c *Clock) Advance(d time.Duration) {
	c.AdvanceTo(c.Now().Add(d))
}
