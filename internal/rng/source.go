package rng

// O(1) seeding for math/rand streams. Seeding math/rand's additive
// lagged-Fibonacci generator runs 1,841 steps of the Lehmer LCG
// x ← 48271·x mod (2³¹−1) and fills a 607-word state vector, even when
// a split stream is only asked for one Intn. lazySource produces the
// same stream bit for bit without paying that up front:
//
//   - The LCG's n-th value is X(n) = x₀·48271ⁿ mod (2³¹−1), so with a
//     table of the powers any post-seed state word is three
//     multiplications and Mersenne folds away:
//     word(i) = X(21+3i)<<40 ^ X(22+3i)<<20 ^ X(23+3i) ^ rngCooked[i].
//
//   - Draw k reads the words at feed 334−k and tap 607−k. For the first
//     273 draws no tap position has been written yet, so draw k is just
//     word(334−k) + word(607−k) and the only state is (x₀, k).
//
//   - Draw 274 is the first whose tap was fed back by an earlier draw.
//     There the source builds the 607-word vector once, replays the 273
//     draws already served, and continues with the standard recurrence.
//
// math/rand's rngCooked table is not exported. It is recovered at init
// from the public stream of one rand.NewSource (see recoverCooked), so
// the stream tracks the standard library without unsafe access or a
// pasted copy of the table. Go 1 keeps seeded math/rand streams stable,
// and property tests compare the two sources draw for draw.

import "math/rand"

const (
	// rngLen and rngTap mirror math/rand's generator geometry: a 607-word
	// additive generator with taps 273 words apart. The feed index starts
	// rngLen-rngTap words in.
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap

	// lcgMod and lcgMul are math/rand's seeding LCG (seedrand).
	lcgMod = 1<<31 - 1
	lcgMul = 48271
	// lcgZeroSeed replaces a seed that is 0 modulo lcgMod, as math/rand does.
	lcgZeroSeed = 89482311
	// lcgSteps counts the LCG values seeding reads: X(0) through X(1841),
	// 20 discarded steps and then three per state word.
	lcgSteps = 21 + 3*rngLen
)

var (
	lcgPow [lcgSteps]uint64 // lcgPow[n] = lcgMul^n mod lcgMod
	cooked [rngLen]uint64   // math/rand's rngCooked, recovered at init
)

func init() {
	p := uint64(1)
	for n := range lcgPow {
		lcgPow[n] = p
		p = mulMod(p, lcgMul)
	}
	recoverCooked()
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹ by folding the product's
// high bits onto its low bits (2³¹ ≡ 1), with no division.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lcgMod + p>>31
	p = p&lcgMod + p>>31
	if p >= lcgMod {
		p -= lcgMod
	}
	return p
}

// lcgStart normalizes a seed into the LCG's start value x₀ as
// math/rand's rngSource.Seed does.
func lcgStart(seed int64) uint64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = lcgZeroSeed
	}
	return uint64(seed)
}

// rawWord is post-seed state word i before the rngCooked mask.
func rawWord(x0 uint64, i int) uint64 {
	n := 21 + 3*i
	return mulMod(x0, lcgPow[n])<<40 ^ mulMod(x0, lcgPow[n+1])<<20 ^ mulMod(x0, lcgPow[n+2])
}

// recoverCooked derives rngCooked from the first rngLen outputs of one
// standard source. Draw k feeds position f(k) = (334−k) mod 607 and adds
// the word at its tap, 607−k. Every position is fed exactly once in the
// first rngLen draws, so the word at f(k) is still the post-seed word.
// For k > 273 the tap was fed by draw k−273; for k ≤ 273 the tap is
// still the post-seed word of position 607−k, which the first loop
// recovers.
func recoverCooked() {
	const probe = 1
	ref := rand.NewSource(probe).(rand.Source64)
	var out [rngLen + 1]uint64 // out[k] is draw k, 1-based
	for k := 1; k <= rngLen; k++ {
		out[k] = ref.Uint64()
	}
	feed := func(k int) int { return (rngFeed - k + rngLen) % rngLen }
	var orig [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		orig[feed(k)] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		orig[feed(k)] = out[k] - orig[rngLen-k]
	}
	x0 := lcgStart(probe)
	for i := range cooked {
		cooked[i] = orig[i] ^ rawWord(x0, i)
	}
}

// lazySource is a rand.Source64 whose stream is bit-identical to
// rand.NewSource(seed), seeded in O(1). The state vector is allocated on
// the first draw past rngTap; until then a draw is computed from x₀.
type lazySource struct {
	x0        uint64
	drawn     int             // draws served while vec is nil
	vec       *[rngLen]uint64 // nil until draw rngTap+1
	tap, feed int
}

func newLazySource(seed int64) *lazySource {
	return &lazySource{x0: lcgStart(seed)}
}

func (s *lazySource) word(i int) uint64 { return rawWord(s.x0, i) ^ cooked[i] }

func (s *lazySource) Uint64() uint64 {
	if s.vec == nil {
		if s.drawn < rngTap {
			s.drawn++
			return s.word(rngFeed-s.drawn) + s.word(rngLen-s.drawn)
		}
		s.materialize()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// materialize builds the post-seed state vector and replays the rngTap
// draws already served from x₀, leaving the standard recurrence where
// the lazy draws left off.
func (s *lazySource) materialize() {
	v := new([rngLen]uint64)
	for i := range v {
		v[i] = s.word(i)
	}
	s.vec, s.tap, s.feed = v, 0, rngFeed
	for k := 0; k < rngTap; k++ {
		s.Uint64()
	}
}

func (s *lazySource) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// Seed repositions the source at the start of seed's stream.
func (s *lazySource) Seed(seed int64) {
	*s = lazySource{x0: lcgStart(seed)}
}
