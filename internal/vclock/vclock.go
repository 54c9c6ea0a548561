// Package vclock implements a deterministic virtual clock and event
// scheduler.
//
// The paper's milking experiment runs 505 sources every 15 minutes for 14
// days with Safe-Browsing lookups every 30 minutes, followed by a final
// lookup two months later. Reproducing that on wall-clock time is
// impossible in a test run, so all time-dependent components of this
// repository (milker, GSB lag model, VirusTotal rescans, domain-rotation
// schedules) read time exclusively from a vclock.Clock, which the
// experiment driver advances explicitly.
package vclock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Epoch is the instant at which every simulation starts. The concrete date
// is arbitrary but fixed so logs and goldens are stable.
var Epoch = time.Date(2019, time.March, 1, 0, 0, 0, 0, time.UTC)

// Clock is a virtual clock with an attached event queue. The zero value is
// not usable; use New.
type Clock struct {
	mu     sync.Mutex
	now    time.Time
	events eventQueue
	seq    int64 // tie-breaker for events scheduled at the same instant
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

// event is a scheduled callback.
type event struct {
	at  time.Time
	seq int64
	fn  func(now time.Time)
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// At schedules fn to run when virtual time reaches t. Scheduling in the
// past (relative to Now) is an error: virtual time never flows backwards.
func (c *Clock) At(t time.Time, fn func(now time.Time)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Before(c.now) {
		return fmt.Errorf("vclock: schedule at %v before now %v", t, c.now)
	}
	c.seq++
	heap.Push(&c.events, &event{at: t, seq: c.seq, fn: fn})
	return nil
}

// After schedules fn to run d after the current virtual time.
func (c *Clock) After(d time.Duration, fn func(now time.Time)) error {
	return c.At(c.Now().Add(d), fn)
}

// Every schedules fn to run at each multiple of interval after the current
// time, until fn returns false or until the clock is advanced past horizon
// (zero horizon means no limit). The first run happens one interval from
// now.
func (c *Clock) Every(interval time.Duration, horizon time.Time, fn func(now time.Time) bool) error {
	if interval <= 0 {
		return fmt.Errorf("vclock: non-positive interval %v", interval)
	}
	var tick func(now time.Time)
	tick = func(now time.Time) {
		if !fn(now) {
			return
		}
		next := now.Add(interval)
		if !horizon.IsZero() && next.After(horizon) {
			return
		}
		// Re-arming cannot fail: next is strictly after now.
		_ = c.At(next, tick)
	}
	first := c.Now().Add(interval)
	if !horizon.IsZero() && first.After(horizon) {
		return nil
	}
	return c.At(first, tick)
}

// AdvanceTo runs all events scheduled up to and including t, in timestamp
// order, and leaves the clock at t. Events scheduled by running events are
// themselves run if they fall within the window.
func (c *Clock) AdvanceTo(t time.Time) {
	c.AdvanceToBatched(t, nil)
}

// BatchRunner executes one batch of same-instant callbacks. The batch is
// ordered by scheduling sequence — exactly the order AdvanceTo would have
// run the callbacks one by one — so a runner that invokes them serially
// in slice order reproduces AdvanceTo. A runner may instead stage or fan
// the callbacks out (the milking engine runs independent same-tick
// sessions on a worker pool), as long as every callback is invoked
// before it returns: the clock re-examines the queue only after the
// runner completes, so events scheduled by the batch (timer re-arms) are
// collected for the next batch.
type BatchRunner func(now time.Time, batch []func(now time.Time))

// AdvanceToBatched is AdvanceTo with same-instant batching: all queued
// events due at the same virtual instant are popped together and handed
// to run as one batch. A nil runner executes batches serially in
// schedule order (identical to AdvanceTo). Events scheduled by a batch
// at the same instant are run as a follow-up batch at the same now.
func (c *Clock) AdvanceToBatched(t time.Time, run BatchRunner) {
	var buf []func(now time.Time)
	for {
		now, batch, ok := c.nextBatch(t, buf)
		if !ok {
			c.finishAdvance(t)
			return
		}
		buf = batch
		if run == nil {
			for _, fn := range batch {
				fn(now)
			}
		} else {
			run(now, batch)
		}
	}
}

// NextBatch pops the earliest same-instant group of events due at or
// before limit, advances the clock to that instant, and returns the
// callbacks in scheduling order (the order AdvanceTo would have run
// them). ok is false — and the clock stays where it is — when nothing
// is due by limit; callers then advance the remaining gap themselves
// (AdvanceTo(limit) is a no-op pop plus the final move). The returned
// slice is owned by the caller. This is the popping primitive both
// batch advancers are built on.
func (c *Clock) NextBatch(limit time.Time) (now time.Time, batch []func(now time.Time), ok bool) {
	return c.nextBatch(limit, nil)
}

// nextBatch is NextBatch with caller-supplied slice capacity: buf is
// truncated and reused, so a driving loop pops every batch of a long
// run into one allocation.
func (c *Clock) nextBatch(limit time.Time, buf []func(now time.Time)) (time.Time, []func(now time.Time), bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events) == 0 || c.events[0].at.After(limit) {
		return time.Time{}, buf, false
	}
	e := heap.Pop(&c.events).(*event)
	if e.at.After(c.now) {
		c.now = e.at
	}
	batch := append(buf[:0], e.fn)
	// Collect every other event due at the same instant, in seq order
	// (the heap pops equal timestamps by ascending seq).
	for len(c.events) > 0 && c.events[0].at.Equal(e.at) {
		batch = append(batch, heap.Pop(&c.events).(*event).fn)
	}
	return c.now, batch, true
}

// finishAdvance moves the clock to t once no events remain due.
func (c *Clock) finishAdvance(t time.Time) {
	c.mu.Lock()
	if t.After(c.now) {
		c.now = t
	}
	c.mu.Unlock()
}

// AdvanceToCoalesced is the multi-tick extension of AdvanceToBatched:
// it pops same-instant batches up to t and runs each batch's callbacks
// serially in schedule order (so self-re-arming timers enqueue their
// next instant before the queue is examined again), but instead of
// handing every instant to a runner it groups consecutive instants and
// calls flush at group boundaries. After an instant's callbacks have
// run, the next due instant extends the current group when
// coalesce(next) returns true; otherwise flush is called before that
// instant's callbacks run. Follow-up events scheduled at the current
// instant always stay in the group (matching AdvanceToBatched's
// same-instant follow-up batches). A trailing flush covers the final
// group, and events scheduled by flush itself are picked up by the
// loop. A nil coalesce never groups (flush after every instant).
//
// The milking engine drives its scheduler with this: timer
// callbacks only record what is due, coalesce fuses consecutive
// milking ticks that no blacklist-poll instant separates, and flush
// fans the recorded ticks out to the worker pool.
func (c *Clock) AdvanceToCoalesced(t time.Time, coalesce func(next time.Time) bool, flush func()) {
	var buf []func(now time.Time)
	open := false // a group has run callbacks and awaits flush
	for {
		now, batch, ok := c.nextBatch(t, buf)
		if !ok {
			if open {
				flush()
			}
			c.finishAdvance(t)
			return
		}
		buf = batch
		for _, fn := range batch {
			fn(now)
		}
		open = true
		if next, okNext := c.NextEvent(); okNext && !next.After(t) {
			if next.Equal(now) || (coalesce != nil && coalesce(next)) {
				continue
			}
		}
		flush()
		open = false
	}
}

// Advance moves the clock forward by d, running due events.
func (c *Clock) Advance(d time.Duration) {
	c.AdvanceTo(c.Now().Add(d))
}

// Pending reports the number of events still queued.
func (c *Clock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// NextEvent returns the timestamp of the earliest queued event, and false
// if the queue is empty.
func (c *Clock) NextEvent() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events) == 0 {
		return time.Time{}, false
	}
	return c.events[0].at, true
}

// Drain advances the clock until no events remain or until limit events
// have run. It returns the number of events run. A limit <= 0 means no
// limit; callers use limits as a runaway-schedule guard in tests.
func (c *Clock) Drain(limit int) int {
	run := 0
	for {
		if limit > 0 && run >= limit {
			return run
		}
		next, ok := c.NextEvent()
		if !ok {
			return run
		}
		c.AdvanceTo(next)
		run++
	}
}
