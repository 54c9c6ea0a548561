package phash

import "repro/internal/imaging"

// DHashNoisy computes the hash the image would have after
// im.Noise(seed) when noise is set, or as it stands when not —
// bit-identical to that naive sequence — without mutating the image and
// without materialising any intermediate buffer: noise generation,
// clamping, Rec.601 luminance and both dual-grid box-filter
// accumulations are fused into a single pass over Pix. This is the
// hashing half of the capture fast path.
func DHashNoisy(im *imaging.Image, noise bool, seed uint64) Hash {
	w, h := im.W, im.H
	if w < 9 || h < 9 {
		// Tiny rasters upscale, where box-filter cells overlap; fall back
		// to the reference resampler rather than replicating its clamping.
		if !noise {
			return DHash(im)
		}
		gray := imaging.GetGray(w * h)
		im.NoisyGrayInto(gray, seed)
		out := gridsToHash(
			imaging.ResizeGrayFrom(gray, w, h, 9, 8),
			imaging.ResizeGrayFrom(gray, w, h, 8, 9))
		imaging.PutGray(gray)
		return out
	}
	if !noise {
		return dualGridPlain(im.Pix, w, h)
	}
	return noisyKernel(im.Pix, w, h, seed)
}

// colSeg is a run of columns whose pixels land in one (9-grid, 8-grid)
// cell-column pair: x in [x0, x1), horizontal-grid column hc, vertical-
// grid column vc. Hoisting the cell bookkeeping to segment granularity
// removes two boundary compares per pixel from the fused inner loops.
type colSeg struct{ x0, x1, hc, vc int }

// colSegments splits [0, w) at every 9-grid and 8-grid cell boundary
// (at most 16 cuts, so at most 17 segments). Boundaries follow
// imaging.ResizeGrayFrom: cell c covers [c*w/g, (c+1)*w/g).
func colSegments(w int, segs *[17]colSeg) int {
	n := 0
	hc, vc := 0, 0
	hcNext, vcNext := w/9, w/8
	x := 0
	for x < w {
		end := hcNext
		if vcNext < end {
			end = vcNext
		}
		if end > w {
			end = w
		}
		segs[n] = colSeg{x0: x, x1: end, hc: hc, vc: vc}
		n++
		x = end
		if x == hcNext {
			hc++
			hcNext = (hc + 1) * w / 9
		}
		if x == vcNext {
			vc++
			vcNext = (vc + 1) * w / 8
		}
	}
	return n
}

// gridsFromSums divides the accumulated cell sums by their cell areas
// and derives the gradient bits. For w, h >= 9 every output cell covers
// the disjoint pixel range [ox*w/W, (ox+1)*w/W) x [oy*h/H, (oy+1)*h/H)
// — exactly the cells imaging.ResizeGrayFrom visits — so sum-then-
// divide reproduces the reference grids bit for bit.
func gridsFromSums(hsum, vsum *[72]int64, w, h int) Hash {
	var hg, vg [72]byte
	for oy := 0; oy < 8; oy++ {
		ys := (oy+1)*h/8 - oy*h/8
		for ox := 0; ox < 9; ox++ {
			xs := (ox+1)*w/9 - ox*w/9
			hg[oy*9+ox] = byte(hsum[oy*9+ox] / int64(xs*ys))
		}
	}
	for oy := 0; oy < 9; oy++ {
		ys := (oy+1)*h/9 - oy*h/9
		for ox := 0; ox < 8; ox++ {
			xs := (ox+1)*w/8 - ox*w/8
			vg[oy*8+ox] = byte(vsum[oy*8+ox] / int64(xs*ys))
		}
	}
	return gridsToHash(hg[:], vg[:])
}

// The fused kernels below share one shape: a single row-major pass over
// Pix that converts each pixel to (noisy) luminance and accumulates it
// into the current cell of both grids. They differ only in how the
// noise deltas are produced; the luminance arithmetic mirrors
// NoisyGrayInto exactly, so each variant is bit-identical to the naive
// Noise + Grayscale + ResizeGray sequence. Accumulation order cannot
// perturb results — cell sums are exact integers — but the noise
// stream is order-sensitive, so every variant consumes pixels in the
// same row-major order the reference does.

// rowCells walks the rows of an h-row raster (h >= 9) in order and
// yields each row's base index into the 9x8 and 8x9 cell sums. Rows
// follow imaging.ResizeGrayFrom: cell c covers [c*h/g, (c+1)*h/g).
type rowCells struct{ h, hr, vr, hrNext, vrNext int }

func newRowCells(h int) rowCells { return rowCells{h: h, hrNext: h / 8, vrNext: h / 9} }

// next returns the cell-sum bases of row y; y must be one past the row
// of the previous call, starting at 0.
func (c *rowCells) next(y int) (hb, vb int) {
	if y == c.hrNext {
		c.hr++
		c.hrNext = (c.hr + 1) * c.h / 8
	}
	if y == c.vrNext {
		c.vr++
		c.vrNext = (c.vr + 1) * c.h / 9
	}
	return c.hr * 9, c.vr * 8
}

// dualGridPlain is the noise-free kernel: plain Rec.601 luminance.
func dualGridPlain(pix []byte, w, h int) Hash {
	var segs [17]colSeg
	nseg := colSegments(w, &segs)
	var hsum, vsum [72]int64
	rows := newRowCells(h)
	i := 0
	for y := 0; y < h; y++ {
		hbase, vbase := rows.next(y)
		for k := 0; k < nseg; k++ {
			sg := segs[k]
			var sum int64
			for x := sg.x0; x < sg.x1; x++ {
				r, g, b := int(pix[i]), int(pix[i+1]), int(pix[i+2])
				sum += int64((299*r + 587*g + 114*b) / 1000)
				i += 4
			}
			hsum[hbase+sg.hc] += sum
			vsum[vbase+sg.vc] += sum
		}
	}
	return gridsFromSums(&hsum, &vsum, w, h)
}

// noisyKernel is the noisy dual-grid kernel DHashNoisy runs. It is the
// portable dualGridMod5 unless the package's init found a faster kernel
// for this CPU (the AVX2 one on amd64); every kernel is bit-identical
// to dualGridMod5.
var noisyKernel = dualGridMod5

// dualGridMod5 is the noisy kernel with inline noise generation: the
// constant-modulus (2*imaging.NoiseAmp+1 = 5) xorshift stream of
// imaging's Noise and a branchless add-clamp table. The serial xorshift
// recurrence is this kernel's latency floor, so rows are processed in
// pairs: a jump table (M^(3W) over GF(2)) derives each row's start
// state without replaying its draws, making the two rows' chains
// independent and letting them interleave in the inner loop. Draw
// values are exactly the reference stream's, and integer cell sums
// commute, so the hash is unchanged.
func dualGridMod5(pix []byte, w, h int, seed uint64) Hash {
	lut := *imaging.ClampLUT5()
	var segs [17]colSeg
	nseg := colSegments(w, &segs)
	var hsum, vsum [72]int64
	jump := imaging.JumpFor(3 * w)
	sRow := seed | 1 // stream state at the start of the current row
	rows := newRowCells(h)
	y := 0
	for ; y+1 < h; y += 2 {
		hbA, vbA := rows.next(y)
		hbB, vbB := rows.next(y + 1)
		sa := sRow
		sb := jump.Apply(sa)
		sRow = jump.Apply(sb)
		rowA := y * w * 4
		for k := 0; k < nseg; k++ {
			sg := segs[k]
			var sumA, sumB int64
			iA := rowA + sg.x0*4
			iB := iA + w*4
			for x := sg.x0; x < sg.x1; x++ {
				sa ^= sa << 13
				sa ^= sa >> 7
				sa ^= sa << 17
				ra := int(lut[uint64(pix[iA])+sa%5])
				sb ^= sb << 13
				sb ^= sb >> 7
				sb ^= sb << 17
				rb := int(lut[uint64(pix[iB])+sb%5])
				sa ^= sa << 13
				sa ^= sa >> 7
				sa ^= sa << 17
				ga := int(lut[uint64(pix[iA+1])+sa%5])
				sb ^= sb << 13
				sb ^= sb >> 7
				sb ^= sb << 17
				gb := int(lut[uint64(pix[iB+1])+sb%5])
				sa ^= sa << 13
				sa ^= sa >> 7
				sa ^= sa << 17
				ba := int(lut[uint64(pix[iA+2])+sa%5])
				sb ^= sb << 13
				sb ^= sb >> 7
				sb ^= sb << 17
				bb := int(lut[uint64(pix[iB+2])+sb%5])
				sumA += int64((299*ra + 587*ga + 114*ba) / 1000)
				sumB += int64((299*rb + 587*gb + 114*bb) / 1000)
				iA += 4
				iB += 4
			}
			hsum[hbA+sg.hc] += sumA
			vsum[vbA+sg.vc] += sumA
			hsum[hbB+sg.hc] += sumB
			vsum[vbB+sg.vc] += sumB
		}
	}
	// Odd-height tail: the last row runs the single-chain loop.
	for ; y < h; y++ {
		hb, vb := rows.next(y)
		sRow = mod5Row(pix[y*w*4:], segs[:nseg], sRow, &hsum, &vsum, hb, vb)
	}
	return gridsFromSums(&hsum, &vsum, w, h)
}

// mod5Row runs one raster row through the single-chain noisy loop: s is
// the stream state at the row's start, row holds the row's pixels from
// its first column on, and each segment's luminance sum lands in the
// cells at bases hb and vb. It returns the state at the row's end,
// which is the next row's start state.
func mod5Row(row []byte, segs []colSeg, s uint64, hsum, vsum *[72]int64, hb, vb int) uint64 {
	lut := imaging.ClampLUT5()
	for _, sg := range segs {
		var sum int64
		for i := sg.x0 * 4; i < sg.x1*4; i += 4 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			r := int(lut[uint64(row[i])+s%5])
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			g := int(lut[uint64(row[i+1])+s%5])
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			b := int(lut[uint64(row[i+2])+s%5])
			sum += int64((299*r + 587*g + 114*b) / 1000)
		}
		hsum[hb+sg.hc] += sum
		vsum[vb+sg.vc] += sum
	}
	return s
}
