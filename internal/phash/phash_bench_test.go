package phash

import (
	"testing"

	"repro/internal/imaging"
)

func BenchmarkDHash(b *testing.B) {
	img := renderTemplate(1, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DHash(img)
	}
}

func BenchmarkDHashLarge(b *testing.B) {
	img := imaging.New(1024, 768)
	img.FillRect(100, 100, 600, 400, imaging.RGB(200, 50, 50))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DHash(img)
	}
}

func BenchmarkDistance(b *testing.B) {
	x := Hash{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	y := x.FlipBits(3, 77, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Distance(x, y) != 3 {
			b.Fatal("distance wrong")
		}
	}
}

// BenchmarkHashKernel_Fused256x192_Go runs the portable Go kernel,
// whichever kernel DHashNoisy dispatches to, at the 256×192 size the
// crawler and milker capture. Against the dispatched kernel's
// BenchmarkHashKernel_Fused256x192 (repository root) it measures what
// the AVX2 kernel buys.
func BenchmarkHashKernel_Fused256x192_Go(b *testing.B) {
	img := renderTemplate(1, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dualGridMod5(img.Pix, img.W, img.H, uint64(i)|1)
	}
}
