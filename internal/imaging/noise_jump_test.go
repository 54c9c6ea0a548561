package imaging

import "testing"

// TestNoiseJumpMatchesStepping pins the GF(2) jump tables to the scalar
// recurrence: Apply must land on exactly the state `draws` sequential
// steps reach, from arbitrary (including degenerate) start states.
func TestNoiseJumpMatchesStepping(t *testing.T) {
	for _, draws := range []int{1, 3, 27, 3 * 37, 3 * 256, 3 * 1024} {
		j := JumpFor(draws)
		for _, s0 := range []uint64{1, 3, 0xdeadbeef, ^uint64(0), 1 << 63, 0x9e3779b97f4a7c15} {
			want := s0
			for k := 0; k < draws; k++ {
				want = noiseStep(want)
			}
			if got := j.Apply(s0); got != want {
				t.Fatalf("draws=%d s0=%#x: jump %#x != stepped %#x", draws, s0, got, want)
			}
		}
		if j2 := JumpFor(draws); j2 != j {
			t.Fatalf("draws=%d: cache returned a different table", draws)
		}
	}
	// Zero is M's fixed point (linearity).
	if got := JumpFor(5).Apply(0); got != 0 {
		t.Fatalf("jump of zero state: %#x", got)
	}
}

func TestClampLUTs(t *testing.T) {
	lut5 := ClampLUT5()
	for v := 0; v <= 255; v++ {
		for d := -2; d <= 2; d++ {
			if got, want := lut5[v+d+2], clampByte(v+d); got != want {
				t.Fatalf("lut5[%d+%d]: %d != %d", v, d, got, want)
			}
		}
	}
	lut := AddClampLUT(7)
	for v := 0; v <= 255; v++ {
		for d := -7; d <= 7; d++ {
			if got, want := lut[v+d+7], clampByte(v+d); got != want {
				t.Fatalf("lut7[%d+%d]: %d != %d", v, d, got, want)
			}
		}
	}
}
