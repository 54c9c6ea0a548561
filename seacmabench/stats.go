package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a set of latency observations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// sorted returns a sorted copy.
func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples (the tolerance keeps 99.9% of 10,000 at rank 9,990).
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sorted()[rank(p, len(s))-1]
}

func (s samples) median() float64 { return s.percentile(50) }

// tailLadder is the set of percentiles the tail rule chooses from,
// highest first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// tail is a tail latency chosen by the ten-beyond rule.
type tail struct {
	P     float64 // the percentile reported
	Value float64 // its value, ms
	N     int     // sample count
}

// tailOf picks the highest percentile of the ladder with at least ten
// samples beyond it, so a tail is never read off a handful of points.
// ok is false when even the median has fewer than ten samples beyond
// it.
func (s samples) tailOf() (t tail, ok bool) {
	n := len(s)
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return tail{P: p, Value: s.percentile(p), N: n}, true
		}
	}
	return tail{N: n}, false
}

// p99 is the 99th percentile, required to rest on at least ten samples
// beyond it (1,000 samples or more).
func (s samples) p99() (float64, error) {
	t, ok := s.tailOf()
	if !ok || t.P < 99 {
		return 0, fmt.Errorf("p99 needs %d samples, have %d", 100*minBeyond, len(s))
	}
	return s.percentile(99), nil
}

// medianOf returns the median of plain values.
func medianOf(xs []float64) float64 { return samples(xs).median() }
