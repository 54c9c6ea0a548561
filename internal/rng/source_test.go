package rng

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// bitIdentitySeeds are the seeds the lazy source must reproduce exactly:
// the LCG's edge cases (0 and the multiples of 2³¹−1 all map to the
// 89482311 fallback), both signs, the int64 extremes, and 300 more drawn
// from a fixed stream.
func bitIdentitySeeds() []int64 {
	seeds := []int64{
		0, 1, -1, lcgMod, -lcgMod, 2 * lcgMod, lcgZeroSeed,
		math.MinInt64, math.MaxInt64,
	}
	r := rand.New(rand.NewSource(20190301))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// streamLengths straddle the lazy source's phase boundaries: the last
// draw computed from x₀ (273), the first from the materialized vector
// (274), one full revolution of the vector (607, 608), and several more.
var streamLengths = []int{1, rngTap, rngTap + 1, rngLen, rngLen + 1, 3*rngLen + 17}

// TestReplaySourceBitIdentical is the lazy source's core property: its
// Uint64 stream replays rand.NewSource's exactly for every seed, before,
// across and well past materialization.
func TestReplaySourceBitIdentical(t *testing.T) {
	for _, seed := range bitIdentitySeeds() {
		for _, n := range streamLengths {
			lazy, ref := newLazySource(seed), rand.NewSource(seed).(rand.Source64)
			for i := 0; i < n; i++ {
				if got, want := lazy.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d len %d: Uint64 draw %d = %#x, want %#x", seed, n, i, got, want)
				}
			}
		}
	}
}

// TestReplaySourceInt63Matches checks the Int63 stream the same way.
func TestReplaySourceInt63Matches(t *testing.T) {
	for _, seed := range bitIdentitySeeds() {
		for _, n := range streamLengths {
			lazy, ref := newLazySource(seed), rand.NewSource(seed)
			for i := 0; i < n; i++ {
				if got, want := lazy.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d len %d: Int63 draw %d = %d, want %d", seed, n, i, got, want)
				}
			}
		}
	}
}

// TestLazySourceSeedRepositions reseeds from both phases — while draws
// are still computed from x₀ and after the vector is materialized — and
// expects the new seed's stream from its first draw.
func TestLazySourceSeedRepositions(t *testing.T) {
	for _, before := range []int{0, 5, rngTap + 1, 2 * rngLen} {
		lazy := newLazySource(1)
		for i := 0; i < before; i++ {
			lazy.Uint64()
		}
		lazy.Seed(2)
		ref := rand.NewSource(2).(rand.Source64)
		for i := 0; i < rngLen+50; i++ {
			if got, want := lazy.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("after %d draws: draw %d after Seed = %#x, want %#x", before, i, got, want)
			}
		}
	}
}

// TestRandMethodsMatchMathRand drives rand.Rand's derived methods over a
// lazy source and a standard one. Each round draws a different number of
// words, so the comparison crosses materialization at varied offsets.
func TestRandMethodsMatchMathRand(t *testing.T) {
	for _, seed := range []int64{0, 7, -123456789, math.MaxInt64} {
		a, b := rand.New(newLazySource(seed)), rand.New(rand.NewSource(seed))
		for round := 0; round < 60; round++ {
			if x, y := a.Intn(1000+round), b.Intn(1000+round); x != y {
				t.Fatalf("seed %d round %d: Intn %d != %d", seed, round, x, y)
			}
			if x, y := a.Float64(), b.Float64(); x != y {
				t.Fatalf("seed %d round %d: Float64 %v != %v", seed, round, x, y)
			}
			if x, y := a.NormFloat64(), b.NormFloat64(); x != y {
				t.Fatalf("seed %d round %d: NormFloat64 %v != %v", seed, round, x, y)
			}
			if x, y := a.ExpFloat64(), b.ExpFloat64(); x != y {
				t.Fatalf("seed %d round %d: ExpFloat64 %v != %v", seed, round, x, y)
			}
			if pa, pb := a.Perm(round%17), b.Perm(round%17); !slices.Equal(pa, pb) {
				t.Fatalf("seed %d round %d: Perm %v != %v", seed, round, pa, pb)
			}
			sa, sb := []int{0, 1, 2, 3, 4, 5, 6, 7}, []int{0, 1, 2, 3, 4, 5, 6, 7}
			a.Shuffle(len(sa), func(i, j int) { sa[i], sa[j] = sa[j], sa[i] })
			b.Shuffle(len(sb), func(i, j int) { sb[i], sb[j] = sb[j], sb[i] })
			if !slices.Equal(sa, sb) {
				t.Fatalf("seed %d round %d: Shuffle %v != %v", seed, round, sa, sb)
			}
		}
	}
}

// TestMemoSplitStreamsMatch checks Split end to end: repeated Splits of
// one name replay one stream, and that stream's rand.Rand-derived values
// equal a standard generator seeded with the same child seed.
func TestMemoSplitStreamsMatch(t *testing.T) {
	root := New(987)
	a := root.Split("campaign/x")
	b := New(987).Split("campaign/x")
	ref := rand.New(rand.NewSource(a.Seed()))
	for i := 0; i < rngLen+50; i++ {
		av, bv, rv := a.Float64(), b.Float64(), ref.Float64()
		if av != bv || av != rv {
			t.Fatalf("draw %d: %v %v %v", i, av, bv, rv)
		}
	}
	if pa, pb, rp := a.Perm(17), b.Perm(17), ref.Perm(17); !slices.Equal(pa, rp) || !slices.Equal(pb, rp) {
		t.Fatalf("Perm diverged: %v %v vs %v", pa, pb, rp)
	}
}

// TestNewThroughMemoBitIdentical checks that New's stream equals
// rand.NewSource's, and that every New of one seed replays it.
func TestNewThroughMemoBitIdentical(t *testing.T) {
	seed := int64(424242424242)
	for round := 0; round < 3; round++ {
		s, want := New(seed), rand.NewSource(seed)
		for i := 0; i < rngLen+50; i++ {
			if got, w := s.Int63(), want.Int63(); got != w {
				t.Fatalf("round %d draw %d: %d != %d", round, i, got, w)
			}
		}
	}
}

func FuzzLazySourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(1))
	f.Add(int64(lcgMod), uint16(rngTap+1))
	f.Add(int64(math.MinInt64), uint16(3*rngLen+17))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		lazy, ref := newLazySource(seed), rand.NewSource(seed).(rand.Source64)
		for i := 0; i < int(draws); i++ {
			if got, want := lazy.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: %#x != %#x", seed, i, got, want)
			}
		}
	})
}

func TestZipfPanicsOutsideDomain(t *testing.T) {
	for _, tc := range []struct {
		name string
		sExp float64
		n    uint64
	}{
		{"sExp=1", 1, 10},
		{"sExp=NaN", math.NaN(), 10},
		{"n=0", 1.2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "rng: Zipf") {
					t.Fatalf("recovered %q, want an rng: Zipf panic", msg)
				}
			}()
			New(1).Zipf(tc.sExp, tc.n).Uint64()
		})
	}
}

// sinkSource keeps split results live so the compiler cannot drop them.
var sinkSource *Source

// BenchmarkRngSplit_Cold measures a split that serves one draw, the
// shape of a per-request slot pick or GSB detection draw. Unique names
// keep every seed fresh.
func BenchmarkRngSplit_Cold(b *testing.B) {
	root := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := root.Split("cold/" + strconv.Itoa(i))
		s.Intn(8)
		sinkSource = s
	}
}

// BenchmarkRngSplit_Long measures a cold split that draws 1,000 values,
// so the state vector's materialization is timed with it.
func BenchmarkRngSplit_Long(b *testing.B) {
	root := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := root.Split("long/" + strconv.Itoa(i))
		for j := 0; j < 1000; j++ {
			s.Int63()
		}
		sinkSource = s
	}
}
