package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/vclock"
)

// walkLog walks a 2h milking / 2h30m polling timetable and logs every
// visit and flush with the clock's position at the time, as
// "milk@00:15", "poll@00:30" and "flush@00:15". cancelAt, when
// non-zero, cancels the walk's context inside the milk visit at that
// offset.
func walkLog(t *testing.T, milk, poll, cancelAt time.Duration) (string, *vclock.Clock, error) {
	t.Helper()
	clock := vclock.New()
	start := clock.Now()
	tt := timetable{
		start:     start,
		milkEvery: milk, pollEvery: poll,
		milkUntil: start.Add(2 * time.Hour), pollUntil: start.Add(150 * time.Minute),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var log []string
	visit := func(kind string) func(at time.Time) {
		return func(at time.Time) {
			if now := clock.Now(); !now.Equal(at) {
				t.Errorf("%s at %v with the clock at %v", kind, at, now)
			}
			d := at.Sub(start)
			log = append(log, fmt.Sprintf("%s@%02d:%02d", kind, d/time.Hour, d%time.Hour/time.Minute))
			if kind == "milk" && d == cancelAt {
				cancel()
			}
		}
	}
	err := tt.walk(ctx, clock, visit("poll"), visit("milk"), func() {
		d := clock.Now().Sub(start)
		log = append(log, fmt.Sprintf("flush@%02d:%02d", d/time.Hour, d%time.Hour/time.Minute))
	})
	return strings.Join(log, " "), clock, err
}

// TestTimetableOrder pins the tracking timetable's instant sequence and
// commit-group boundaries. Every source is milked at every tick, so
// one log line per tick stands for all of them. On a shared instant
// the poll goes first, and a group closes before every poll, at
// maxGroupTicks ticks and after the last instant, with the clock at
// its last tick: a poll at T sees every tick before T committed and
// none at T. The 10m/60m pair is the one that reaches the tick cap.
func TestTimetableOrder(t *testing.T) {
	for _, c := range []struct {
		milk, poll time.Duration
		want       string
	}{
		{15 * time.Minute, 30 * time.Minute, "milk@00:15 flush@00:15 poll@00:30 milk@00:30 milk@00:45 flush@00:45 " +
			"poll@01:00 milk@01:00 milk@01:15 flush@01:15 poll@01:30 milk@01:30 milk@01:45 flush@01:45 " +
			"poll@02:00 milk@02:00 flush@02:00 poll@02:30"},
		{30 * time.Minute, 30 * time.Minute, "poll@00:30 milk@00:30 flush@00:30 poll@01:00 milk@01:00 flush@01:00 " +
			"poll@01:30 milk@01:30 flush@01:30 poll@02:00 milk@02:00 flush@02:00 poll@02:30"},
		{20 * time.Minute, 30 * time.Minute, "milk@00:20 flush@00:20 poll@00:30 milk@00:40 flush@00:40 " +
			"poll@01:00 milk@01:00 milk@01:20 flush@01:20 poll@01:30 milk@01:40 flush@01:40 " +
			"poll@02:00 milk@02:00 flush@02:00 poll@02:30"},
		{15 * time.Minute, 10 * time.Minute, "poll@00:10 milk@00:15 flush@00:15 poll@00:20 poll@00:30 milk@00:30 flush@00:30 " +
			"poll@00:40 milk@00:45 flush@00:45 poll@00:50 poll@01:00 milk@01:00 flush@01:00 " +
			"poll@01:10 milk@01:15 flush@01:15 poll@01:20 poll@01:30 milk@01:30 flush@01:30 " +
			"poll@01:40 milk@01:45 flush@01:45 poll@01:50 poll@02:00 milk@02:00 flush@02:00 " +
			"poll@02:10 poll@02:20 poll@02:30"},
		{10 * time.Minute, 60 * time.Minute, "milk@00:10 milk@00:20 milk@00:30 milk@00:40 flush@00:40 milk@00:50 flush@00:50 " +
			"poll@01:00 milk@01:00 milk@01:10 milk@01:20 milk@01:30 flush@01:30 milk@01:40 milk@01:50 flush@01:50 " +
			"poll@02:00 milk@02:00 flush@02:00"},
	} {
		got, _, err := walkLog(t, c.milk, c.poll, 0)
		if err != nil {
			t.Fatalf("milk %v poll %v: %v", c.milk, c.poll, err)
		}
		if got != c.want {
			t.Errorf("milk %v poll %v:\n  got  %s\n  want %s", c.milk, c.poll, got, c.want)
		}
	}
}

// TestTimetableCancelDropsOpenGroup: a context cancelled during the
// walk stops it at the next instant, and the open group is dropped
// without a flush.
func TestTimetableCancelDropsOpenGroup(t *testing.T) {
	got, clock, err := walkLog(t, 15*time.Minute, 30*time.Minute, 45*time.Minute)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if want := "milk@00:15 flush@00:15 poll@00:30 milk@00:30 milk@00:45"; got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
	if want := vclock.Epoch.Add(45 * time.Minute); !clock.Now().Equal(want) {
		t.Errorf("clock at %v, want %v", clock.Now(), want)
	}
}

// TestMilkerRejectsUnrunnableSchedule: a period that is not positive
// after defaults would never advance the timetable, and a negative
// horizon has no meaning; RunContext rejects both before milking.
func TestMilkerRejectsUnrunnableSchedule(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   MilkerConfig
	}{
		{"MilkInterval", MilkerConfig{MilkInterval: -time.Minute}},
		{"GSBInterval", MilkerConfig{GSBInterval: -time.Minute}},
		{"Duration", MilkerConfig{Duration: -time.Hour}},
		{"GSBExtra", MilkerConfig{GSBExtra: -time.Hour}},
		{"FinalLookupAfter", MilkerConfig{FinalLookupAfter: -time.Hour}},
	} {
		clock := vclock.New()
		m := NewMilker(nil, clock, nil, nil, c.cfg)
		res, err := m.RunContext(context.Background(), []MilkSource{{URL: "http://src.example/"}})
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: err = %v, want one naming %s", c.field, err, c.field)
		}
		if res != nil || !clock.Now().Equal(vclock.Epoch) {
			t.Errorf("%s: rejected run returned %v and moved the clock to %v", c.field, res, clock.Now())
		}
		m.Close()
	}
	// Zero values take the paper's defaults, so they are valid.
	if err := (MilkerConfig{}).Validate(); err != nil {
		t.Errorf("zero config: %v", err)
	}
}

// TestNewMilkerNegativeWorkers: a negative worker count takes the
// default, as crawler.Config's does, instead of panicking.
func TestNewMilkerNegativeWorkers(t *testing.T) {
	m := NewMilker(nil, vclock.New(), nil, nil, MilkerConfig{Workers: -2})
	defer m.Close()
	if m.cfg.Workers < 1 {
		t.Fatalf("Workers = %d after defaults", m.cfg.Workers)
	}
}
