package phash

import (
	"reflect"
	"testing"
)

// TestAVX2KernelSelected pins the dispatch: DHashNoisy runs the AVX2
// kernel exactly when the CPU and OS support it.
func TestAVX2KernelSelected(t *testing.T) {
	selected := reflect.ValueOf(noisyKernel).Pointer() == reflect.ValueOf(dualGridMod5AVX2).Pointer()
	if selected != cpuHasAVX2() {
		t.Fatalf("AVX2 kernel selected = %v, CPU has AVX2 = %v", selected, cpuHasAVX2())
	}
}

// TestMod5Rows4MatchesRowLoop checks the AVX2 segment kernel lane by
// lane against the single-chain row loop, for every segment width from
// 0 to a whole row, on random and clamp-edge pixels: each lane's sum
// and end state must equal the loop's.
func TestMod5Rows4MatchesRowLoop(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("CPU without AVX2")
	}
	const w = 80
	for n := 0; n <= w; n++ {
		for _, edge := range []bool{false, true} {
			seed := uint64(n)*0x9e3779b97f4a7c15 + 1
			img := randomImage(w, 4, seed)
			if edge {
				img = clampEdgeImage(w, 4, seed)
			}
			x0 := (w - n) / 2
			start := [4]uint64{seed | 1, seed * 3, ^seed, seed << 7}
			st := start
			var sums [4]int64
			mod5Rows4(&img.Pix[x0*4], w*4, n, &st, &sums)
			for j := range start {
				var hsum, vsum [72]int64
				end := mod5Row(img.Pix[j*w*4:], []colSeg{{x0: x0, x1: x0 + n}}, start[j], &hsum, &vsum, 0, 0)
				if st[j] != end || sums[j] != hsum[0] {
					t.Fatalf("n=%d edge=%v lane %d: state %#x sum %d, row loop state %#x sum %d",
						n, edge, j, st[j], sums[j], end, hsum[0])
				}
			}
		}
	}
}
