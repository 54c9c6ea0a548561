package imaging

import "sync"

// Noise-stream jump tables. One xorshift step is linear over GF(2)
// (three shift-xors), so k steps compose to a 64x64 bit matrix M^k that
// can be applied in eight table lookups. A jump table lets a consumer
// compute the stream state at the start of every raster row directly
// from the previous row's start state — without replaying the row's
// 3*W draws — which makes rows independent chains that a fused kernel
// can interleave for instruction-level parallelism. The draws
// themselves are unchanged: jumping lands on exactly the state the
// serial recurrence would reach.

// NoiseJump applies M^draws to a noise-stream state, where M is one
// xorshift step of the capture noise stream.
type NoiseJump struct {
	tab [8][256]uint64
}

// noiseStep is the single xorshift step shared by Noise and
// NoisyGrayInto.
func noiseStep(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// Apply advances a state by the table's draw count in 8 lookups.
func (j *NoiseJump) Apply(s uint64) uint64 {
	return j.tab[0][byte(s)] ^
		j.tab[1][byte(s>>8)] ^
		j.tab[2][byte(s>>16)] ^
		j.tab[3][byte(s>>24)] ^
		j.tab[4][byte(s>>32)] ^
		j.tab[5][byte(s>>40)] ^
		j.tab[6][byte(s>>48)] ^
		j.tab[7][byte(s>>56)]
}

func buildJump(draws int) *NoiseJump {
	// Columns of M^draws: the image of each basis bit under `draws`
	// scalar steps (linearity makes per-basis stepping exact).
	var cols [64]uint64
	for i := 0; i < 64; i++ {
		s := uint64(1) << i
		for k := 0; k < draws; k++ {
			s = noiseStep(s)
		}
		cols[i] = s
	}
	j := &NoiseJump{}
	// Subset-sum expansion per state byte: tab[b][v] = xor of the
	// columns selected by v's set bits.
	for b := 0; b < 8; b++ {
		for v := 1; v < 256; v++ {
			low := v & (v - 1) // v with lowest set bit cleared
			bit := v - low
			j.tab[b][v] = j.tab[b][low] ^ cols[b*8+trailingZeros8(bit)]
		}
	}
	return j
}

func trailingZeros8(v int) int {
	n := 0
	for v&1 == 0 {
		v >>= 1
		n++
	}
	return n
}

// jumpCache memoizes tables per draw count. Rasters reuse a handful of
// widths (the paper viewports and their scaled probes), so this stays
// tiny; entries are 16 KB and immutable.
var jumpCache sync.Map // draws int -> *NoiseJump

// JumpFor returns the memoized jump table for `draws` steps of the
// noise stream.
func JumpFor(draws int) *NoiseJump {
	if v, ok := jumpCache.Load(draws); ok {
		return v.(*NoiseJump)
	}
	j := buildJump(draws)
	if v, loaded := jumpCache.LoadOrStore(draws, j); loaded {
		return v.(*NoiseJump)
	}
	return j
}
