package phash

import (
	"testing"

	"repro/internal/imaging"
)

// randomImage fills an image with deterministic pseudo-random content,
// including saturated regions so the noise clamping paths fire.
func randomImage(w, h int, seed uint64) *imaging.Image {
	img := imaging.New(w, h)
	s := seed | 1
	for i := range img.Pix {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		img.Pix[i] = byte(s)
	}
	img.FillRect(0, 0, w/3+1, h/3+1, imaging.RGB(255, 255, 255))
	img.FillRect(w/2, h/2, w/3+1, h/3+1, imaging.RGB(0, 0, 0))
	return img
}

// TestDHashNoisyMatchesNaive is the bit-exactness contract of the fused
// hash: for every size class (dual-grid fast path and the tiny-raster
// fallback), noise setting and seed, DHashNoisy(im) == DHash(im + Noise).
func TestDHashNoisyMatchesNaive(t *testing.T) {
	sizes := [][2]int{
		{256, 192}, {1024, 768}, {9, 9}, {10, 64}, {37, 23},
		{8, 8}, {5, 17}, {3, 3}, {100, 9},
	}
	for _, sz := range sizes {
		for _, noise := range []bool{false, true} {
			for _, seed := range []uint64{0, 7, 1 << 40} {
				img := randomImage(sz[0], sz[1], seed*2654435761+uint64(sz[0]))
				fused := DHashNoisy(img, noise, seed)
				if want := naiveHash(img, noise, seed); fused != want {
					t.Fatalf("size=%dx%d noise=%v seed=%d: fused %v != naive %v",
						sz[0], sz[1], noise, seed, fused, want)
				}
			}
		}
	}
}

func TestDHashNoisyDoesNotMutate(t *testing.T) {
	img := randomImage(64, 48, 3)
	before := append([]byte(nil), img.Pix...)
	DHashNoisy(img, true, 99)
	for i := range before {
		if img.Pix[i] != before[i] {
			t.Fatalf("pixel %d mutated", i)
		}
	}
}

// naiveHash is the reference pipeline the fused kernels must match bit
// for bit: clone, mutate with Noise when noise is set, hash the
// materialised grayscale.
func naiveHash(img *imaging.Image, noise bool, seed uint64) Hash {
	n := img.Clone()
	if noise {
		n.Noise(seed)
	}
	return DHash(n)
}

// TestDHashNoisyClampEdges pins the branchless clamp: images saturated
// near both channel extremes (0..4 and 251..255), where every noise
// delta straddles a clamp boundary, must hash identically to the naive
// clampByte path on every kernel variant.
func TestDHashNoisyClampEdges(t *testing.T) {
	for _, base := range []int{0, 1, 2, 3, 4, 251, 252, 253, 254, 255} {
		for _, noise := range []bool{false, true} {
			img := imaging.New(40, 24)
			for i := 0; i < len(img.Pix); i += 4 {
				img.Pix[i] = byte(base)
				img.Pix[i+1] = byte((base + i/4) % 5)
				if base >= 251 {
					img.Pix[i+1] = byte(251 + (base+i/4)%5)
				}
				img.Pix[i+2] = byte(base)
			}
			seed := uint64(1000 * base)
			want := naiveHash(img, noise, seed)
			if got := DHashNoisy(img, noise, seed); got != want {
				t.Fatalf("base=%d noise=%v: %v != %v", base, noise, got, want)
			}
		}
	}
}

// TestDHashNoisyRandomizedProperty sweeps pseudo-random dimensions,
// noise settings and seeds through the fused kernels.
func TestDHashNoisyRandomizedProperty(t *testing.T) {
	s := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(n))
	}
	for trial := 0; trial < 60; trial++ {
		w, h := 1+next(300), 1+next(200)
		noise := next(2) == 1
		seed := s * 0x2545f4914f6cdd1d
		img := randomImage(w, h, seed)
		want := naiveHash(img, noise, seed)
		if got := DHashNoisy(img, noise, seed); got != want {
			t.Fatalf("trial %d (%dx%d noise=%v): fused %v != naive %v", trial, w, h, noise, got, want)
		}
	}
}

// FuzzDHashNoisyFused cross-checks the fused kernels against the naive
// pipeline on fuzzer-chosen dimensions, noise setting, seed and fill.
func FuzzDHashNoisyFused(f *testing.F) {
	f.Add(uint16(64), uint16(48), true, uint64(7), uint64(3))
	f.Add(uint16(9), uint16(9), false, uint64(0), uint64(1))
	f.Add(uint16(3), uint16(17), true, uint64(1)<<40, uint64(9))
	f.Add(uint16(100), uint16(9), false, uint64(12345), uint64(0xfefefefe))
	f.Fuzz(func(t *testing.T, w16, h16 uint16, noise bool, seed, fill uint64) {
		w, h := int(w16)%257+1, int(h16)%193+1
		img := randomImage(w, h, fill)
		want := naiveHash(img, noise, seed)
		if got := DHashNoisy(img, noise, seed); got != want {
			t.Fatalf("%dx%d noise=%v seed=%d: fused %v != naive %v", w, h, noise, seed, got, want)
		}
	})
}
