package phash

import (
	"math"

	"repro/internal/imaging"
)

// The AVX2 kernel runs four raster rows at once, one row's noise chain
// per 64-bit lane. The row-jump tables make every row an independent
// xorshift chain, so the lanes never wait on each other; the arithmetic
// (see fused_amd64.s) is exact, so the hash is bit-identical to
// dualGridMod5's.

func init() {
	if cpuHasAVX2() {
		noisyKernel = dualGridMod5AVX2
	}
}

// mod5Rows4 hashes one column segment of four rows: pix points at the
// segment's first pixel in the first row, the other rows follow at
// stride bytes, and the segment is n pixels wide. states holds each
// row's noise state on entry and receives it on exit; sums receives
// each row's luminance sum over the segment.
//
//go:noescape
func mod5Rows4(pix *byte, stride, n int, states *[4]uint64, sums *[4]int64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves YMM
// state across context switches.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// dualGridMod5AVX2 is dualGridMod5 with four rows per instruction: each
// group of four rows starts from three jump applies, runs every column
// segment through mod5Rows4, and hands the fourth row's end state to the
// next group. Rows left over by h%4 run the single-chain loop.
func dualGridMod5AVX2(pix []byte, w, h int, seed uint64) Hash {
	if 12*w > math.MaxInt32 { // the gather's row offsets are int32
		return dualGridMod5(pix, w, h, seed)
	}
	_ = pix[w*h*4-1] // mod5Rows4 reads within the raster
	var segs [17]colSeg
	nseg := colSegments(w, &segs)
	var hsum, vsum [72]int64
	jump := imaging.JumpFor(3 * w)
	s := seed | 1 // stream state at the start of the current row
	rows := newRowCells(h)
	y := 0
	for ; y+4 <= h; y += 4 {
		var hb, vb [4]int
		for j := range hb {
			hb[j], vb[j] = rows.next(y + j)
		}
		st := [4]uint64{s}
		for j := 1; j < 4; j++ {
			st[j] = jump.Apply(st[j-1])
		}
		row := y * w * 4
		for _, sg := range segs[:nseg] {
			var sums [4]int64
			mod5Rows4(&pix[row+sg.x0*4], w*4, sg.x1-sg.x0, &st, &sums)
			for j, sum := range sums {
				hsum[hb[j]+sg.hc] += sum
				vsum[vb[j]+sg.vc] += sum
			}
		}
		s = st[3]
	}
	for ; y < h; y++ {
		hb, vb := rows.next(y)
		s = mod5Row(pix[y*w*4:], segs[:nseg], s, &hsum, &vsum, hb, vb)
	}
	return gridsFromSums(&hsum, &vsum, w, h)
}
