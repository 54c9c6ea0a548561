package phash

import "repro/internal/imaging"

// DHashNoisy computes the hash the image would have after
// im.Noise(amp, seed) — bit-identical to that naive sequence — without
// mutating the image and without materialising any intermediate buffer:
// noise generation, clamping, Rec.601 luminance and both dual-grid
// box-filter accumulations are fused into a single pass over Pix. This
// is the hashing half of the capture fast path.
func DHashNoisy(im *imaging.Image, amp int, seed uint64) Hash {
	w, h := im.W, im.H
	if w < 9 || h < 9 {
		// Tiny rasters upscale, where box-filter cells overlap; fall back
		// to the reference resampler rather than replicating its clamping.
		gray := imaging.GetGray(w * h)
		im.NoisyGrayInto(gray, amp, seed)
		out := gridsToHash(
			imaging.ResizeGrayFrom(gray, w, h, 9, 8),
			imaging.ResizeGrayFrom(gray, w, h, 8, 9))
		imaging.PutGray(gray)
		return out
	}
	if amp <= 0 {
		return dualGridPlain(im.Pix, w, h)
	}
	if amp == 2 {
		return dualGridMod5(im.Pix, w, h, seed)
	}
	return dualGridGenericAmp(im.Pix, w, h, seed, amp)
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

// dualGridPlain is the amp<=0 kernel: plain Rec.601 luminance.
func dualGridPlain(pix []byte, w, h int) Hash {
	var segs [17]colSeg
	nseg := colSegments(w, &segs)
	var hsum, vsum [72]int64
	hr, vr := 0, 0
	hrNext, vrNext := h/8, h/9
	i := 0
	for y := 0; y < h; y++ {
		if y == hrNext {
			hr++
			hrNext = (hr + 1) * h / 8
		}
		if y == vrNext {
			vr++
			vrNext = (vr + 1) * h / 9
		}
		hbase, vbase := hr*9, vr*8
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

// dualGridMod5 is the amp=2 kernel with inline noise generation: the
// renderer's only amplitude, with the constant-modulus xorshift stream
// of noiseMod5 and a branchless add-clamp table. The serial xorshift
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
	hr, vr := 0, 0
	hrNext, vrNext := h/8, h/9
	y := 0
	for ; y+1 < h; y += 2 {
		if y == hrNext {
			hr++
			hrNext = (hr + 1) * h / 8
		}
		if y == vrNext {
			vr++
			vrNext = (vr + 1) * h / 9
		}
		hbA, vbA := hr*9, vr*8
		if y+1 == hrNext {
			hr++
			hrNext = (hr + 1) * h / 8
		}
		if y+1 == vrNext {
			vr++
			vrNext = (vr + 1) * h / 9
		}
		hbB, vbB := hr*9, vr*8
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
	// Odd-height tail: the last row runs the plain single-chain loop.
	for ; y < h; y++ {
		if y == hrNext {
			hr++
			hrNext = (hr + 1) * h / 8
		}
		if y == vrNext {
			vr++
			vrNext = (vr + 1) * h / 9
		}
		hbase, vbase := hr*9, vr*8
		s := sRow
		i := y * w * 4
		for k := 0; k < nseg; k++ {
			sg := segs[k]
			var sum int64
			for x := sg.x0; x < sg.x1; x++ {
				s ^= s << 13
				s ^= s >> 7
				s ^= s << 17
				r := int(lut[uint64(pix[i])+s%5])
				s ^= s << 13
				s ^= s >> 7
				s ^= s << 17
				g := int(lut[uint64(pix[i+1])+s%5])
				s ^= s << 13
				s ^= s >> 7
				s ^= s << 17
				b := int(lut[uint64(pix[i+2])+s%5])
				sum += int64((299*r + 587*g + 114*b) / 1000)
				i += 4
			}
			hsum[hbase+sg.hc] += sum
			vsum[vbase+sg.vc] += sum
		}
		sRow = s
	}
	return gridsFromSums(&hsum, &vsum, w, h)
}

// dualGridGenericAmp is the inline kernel for arbitrary amplitudes:
// variable modulus, table clamp sized to the amplitude. Mirrors the
// generic branch of NoisyGrayInto.
func dualGridGenericAmp(pix []byte, w, h int, seed uint64, amp int) Hash {
	lut := imaging.AddClampLUT(amp)
	m := uint64(2*amp + 1)
	var segs [17]colSeg
	nseg := colSegments(w, &segs)
	var hsum, vsum [72]int64
	s := seed | 1
	hr, vr := 0, 0
	hrNext, vrNext := h/8, h/9
	i := 0
	for y := 0; y < h; y++ {
		if y == hrNext {
			hr++
			hrNext = (hr + 1) * h / 8
		}
		if y == vrNext {
			vr++
			vrNext = (vr + 1) * h / 9
		}
		hbase, vbase := hr*9, vr*8
		for k := 0; k < nseg; k++ {
			sg := segs[k]
			var sum int64
			for x := sg.x0; x < sg.x1; x++ {
				s ^= s << 13
				s ^= s >> 7
				s ^= s << 17
				r := int(lut[uint64(pix[i])+s%m])
				s ^= s << 13
				s ^= s >> 7
				s ^= s << 17
				g := int(lut[uint64(pix[i+1])+s%m])
				s ^= s << 13
				s ^= s >> 7
				s ^= s << 17
				b := int(lut[uint64(pix[i+2])+s%m])
				sum += int64((299*r + 587*g + 114*b) / 1000)
				i += 4
			}
			hsum[hbase+sg.hc] += sum
			vsum[vbase+sg.vc] += sum
		}
	}
	return gridsFromSums(&hsum, &vsum, w, h)
}
