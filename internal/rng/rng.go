// Package rng provides deterministic, splittable random number generation
// for the SEACMA simulator.
//
// Every stochastic component of the synthetic web (ad networks, SE
// campaigns, publisher layouts, GSB lag draws, ...) derives its randomness
// from a single experiment seed through named sub-streams, so that the same
// seed always produces the same world regardless of the order in which
// components initialise or how many goroutines consume randomness.
package rng

import (
	"math"
	"math/rand"
	"sync"
)

// Source is a deterministic random stream. It wraps math/rand with a
// mutex so a single stream may be shared across goroutines, and supports
// splitting into independently-seeded named child streams.
type Source struct {
	mu   sync.Mutex
	r    *rand.Rand
	seed int64
}

// New returns a Source seeded with the given seed. Its stream is
// bit-identical to rand.New(rand.NewSource(seed)), but seeding is O(1):
// the generator state is derived lazily from the seed (see source.go),
// so a stream that draws a few values never pays math/rand's seeding.
func New(seed int64) *Source {
	return &Source{r: rand.New(newLazySource(seed)), seed: seed}
}

// Seed returns the seed this source was created with.
func (s *Source) Seed() int64 { return s.seed }

// Split derives an independent child stream identified by name. The child
// seed is a function of only (parent seed, name), so the derivation is
// stable across runs and call orders.
func (s *Source) Split(name string) *Source {
	return New(childSeed(s.seed, name))
}

// Keyed derives a child stream for the few draws of one keyed event — a
// request served by the synthetic web. Like Split, the child is a
// function of only (parent seed, name); unlike Split it runs on a
// SplitMix64 generator, so its stream differs from Split's for the same
// name. Both seed in O(1); Keyed stays a separate generator because
// the reports its callers produce are pinned by digest.
func (s *Source) Keyed(name string) *Source {
	seed := childSeed(s.seed, name)
	return &Source{r: rand.New(&splitMix{state: uint64(seed)}), seed: seed}
}

// childSeed is FNV-1a over the parent seed's little-endian bytes and
// then the name.
func childSeed(parent int64, name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(uint64(parent) >> (8 * i)))
		h *= 1099511628211
	}
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int64(h)
}

// splitMix is the SplitMix64 generator behind Keyed streams.
type splitMix struct{ state uint64 }

func (m *splitMix) Uint64() uint64 {
	m.state += 0x9e3779b97f4a7c15
	z := m.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (m *splitMix) Int63() int64    { return int64(m.Uint64() >> 1) }
func (m *splitMix) Seed(seed int64) { m.state = uint64(seed) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Int63()
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Intn(n)
}

// IntRange returns a pseudo-random int in [lo, hi]. It panics if hi < lo.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	if hi == lo {
		return lo
	}
	return lo + s.Intn(hi-lo+1)
}

// Float64 returns a pseudo-random float64 in [0.0, 1.0).
func (s *Source) Float64() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Float64()
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1.
func (s *Source) NormFloat64() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.NormFloat64()
}

// LogNormal returns a sample from a log-normal distribution with the given
// parameters of the underlying normal (mu, sigma).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Exp returns an exponentially distributed sample with the given mean.
func (s *Source) Exp(mean float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.ExpFloat64() * mean
}

// Perm returns a pseudo-random permutation of the integers [0, n).
func (s *Source) Perm(n int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Perm(n)
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.r.Shuffle(n, swap)
}

// Pick returns a uniformly chosen element of items. It panics on an empty
// slice.
func Pick[T any](s *Source, items []T) T {
	if len(items) == 0 {
		panic("rng: Pick from empty slice")
	}
	return items[s.Intn(len(items))]
}

// Weighted selects an index in [0, len(weights)) with probability
// proportional to weights[i]. Non-positive weights are treated as zero.
// It panics if all weights are zero or the slice is empty.
func (s *Source) Weighted(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: Weighted with no positive weight")
	}
	x := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("rng: unreachable")
}

// Zipf returns a sampler of values in [0, n) following a Zipf distribution
// with exponent sExp > 1, n >= 1. Smaller indices are more likely, which
// models popularity skew (publisher traffic, ad-network market share).
// It panics outside that domain.
func (s *Source) Zipf(sExp float64, n uint64) *Zipf {
	if !(sExp > 1) {
		panic("rng: Zipf exponent must be > 1")
	}
	if n == 0 {
		panic("rng: Zipf with n == 0")
	}
	s.mu.Lock()
	z := rand.NewZipf(s.r, sExp, 1, n-1)
	s.mu.Unlock()
	return &Zipf{src: s, z: z}
}

// Zipf is a Zipf-distributed sampler bound to a Source.
type Zipf struct {
	src *Source
	z   *rand.Zipf
}

// Uint64 draws the next Zipf sample.
func (z *Zipf) Uint64() uint64 {
	z.src.mu.Lock()
	defer z.src.mu.Unlock()
	return z.z.Uint64()
}

// Letters used by random token generation; lowercase-only because the
// simulator mints domain labels from these tokens.
const letters = "abcdefghijklmnopqrstuvwxyz"
const alnum = "abcdefghijklmnopqrstuvwxyz0123456789"

// Token returns a random lowercase-letter string of length n.
func (s *Source) Token(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[s.Intn(len(letters))]
	}
	return string(b)
}

// AlnumToken returns a random lowercase alphanumeric string of length n
// whose first character is always a letter (valid as a DNS label or
// identifier).
func (s *Source) AlnumToken(n int) string {
	if n <= 0 {
		return ""
	}
	b := make([]byte, n)
	b[0] = letters[s.Intn(len(letters))]
	for i := 1; i < n; i++ {
		b[i] = alnum[s.Intn(len(alnum))]
	}
	return string(b)
}

// HexToken returns a random hex string of length n.
func (s *Source) HexToken(n int) string {
	const hexdigits = "0123456789abcdef"
	b := make([]byte, n)
	for i := range b {
		b[i] = hexdigits[s.Intn(len(hexdigits))]
	}
	return string(b)
}
