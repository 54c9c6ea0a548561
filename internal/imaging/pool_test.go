package imaging

import (
	"bytes"
	"testing"
)

func TestNewPooledMatchesNew(t *testing.T) {
	a := New(33, 21)
	b := NewPooled(33, 21)
	defer b.Release()
	if a.W != b.W || a.H != b.H || !bytes.Equal(a.Pix, b.Pix) {
		t.Fatal("pooled image differs from New")
	}
}

func TestPooledReuseStartsWhite(t *testing.T) {
	img := NewPooled(16, 16)
	img.Fill(RGB(1, 2, 3))
	img.Release()
	again := NewPooled(16, 16)
	defer again.Release()
	want := New(16, 16)
	if !bytes.Equal(again.Pix, want.Pix) {
		t.Fatal("reused pooled buffer not reset to white")
	}
}

func TestReleaseIsIdempotentAndNilSafe(t *testing.T) {
	img := NewPooled(4, 4)
	img.Release()
	img.Release() // second release is a no-op
	var nilImg *Image
	nilImg.Release()
}

func TestGrayPoolRoundTrip(t *testing.T) {
	buf := GetGray(128)
	if len(buf) != 128 {
		t.Fatalf("len = %d, want 128", len(buf))
	}
	PutGray(buf)
	again := GetGray(64)
	if len(again) != 64 {
		t.Fatalf("len = %d, want 64", len(again))
	}
	PutGray(again)
}

func TestPoolStatsProgress(t *testing.T) {
	gets0, _, _ := PoolStats()
	img := NewPooled(8, 8)
	gets1, _, inUse := PoolStats()
	if gets1 <= gets0 {
		t.Fatal("gets did not increase")
	}
	if inUse < int64(8*8*4) {
		t.Fatalf("inUse = %d, want >= %d", inUse, 8*8*4)
	}
	img.Release()
}

// TestNoisyGrayMatchesNoiseThenGrayscale is the bit-exactness contract
// of the fused pass.
func TestNoisyGrayMatchesNoiseThenGrayscale(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 60} {
		img := New(37, 23)
		// Non-trivial content so clamping paths are exercised.
		img.FillRect(0, 0, 20, 23, RGB(250, 3, 128))
		img.FillRect(10, 5, 27, 10, RGB(0, 255, 7))
		img.TextBlock(2, 2, 30, 18, RGB(9, 9, 9), 99)

		fused := make([]byte, img.W*img.H)
		img.NoisyGrayInto(fused, seed)

		naive := img.Clone()
		naive.Noise(seed)
		want := naive.Grayscale()

		if !bytes.Equal(fused, want) {
			t.Fatalf("seed=%d: fused gray differs from Noise+Grayscale", seed)
		}
	}
}

func TestNoisyGrayLeavesSourceUntouched(t *testing.T) {
	img := New(16, 16)
	img.FillRect(3, 3, 9, 9, RGB(120, 40, 200))
	before := append([]byte(nil), img.Pix...)
	dst := make([]byte, 16*16)
	img.NoisyGrayInto(dst, 777)
	if !bytes.Equal(before, img.Pix) {
		t.Fatal("NoisyGrayInto mutated the source pixels")
	}
}
