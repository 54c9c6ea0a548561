package imaging

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestNewIsWhite(t *testing.T) {
	im := New(10, 10)
	c := im.At(5, 5)
	if c != RGB(255, 255, 255) {
		t.Fatalf("pixel = %+v", c)
	}
}

func TestSetAt(t *testing.T) {
	im := New(4, 4)
	im.Set(2, 3, RGB(10, 20, 30))
	if got := im.At(2, 3); got != RGB(10, 20, 30) {
		t.Fatalf("At = %+v", got)
	}
	// Out-of-bounds writes are ignored, reads return black.
	im.Set(-1, 0, RGB(1, 1, 1))
	im.Set(4, 0, RGB(1, 1, 1))
	if got := im.At(99, 99); got != (Color{}) {
		t.Fatalf("OOB At = %+v", got)
	}
}

func TestFillRectClipped(t *testing.T) {
	im := New(8, 8)
	im.FillRect(-5, -5, 100, 100, Gray(0))
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if im.At(x, y) != Gray(0) {
				t.Fatalf("pixel (%d,%d) not filled", x, y)
			}
		}
	}
}

func TestBorder(t *testing.T) {
	im := New(10, 10)
	im.Border(0, 0, 10, 10, 2, Gray(0))
	if im.At(0, 0) != Gray(0) || im.At(9, 9) != Gray(0) {
		t.Fatal("corners not painted")
	}
	if im.At(5, 5) != Gray(255) {
		t.Fatal("interior painted")
	}
}

func TestTextBlockDeterministic(t *testing.T) {
	a, b := New(100, 60), New(100, 60)
	a.TextBlock(5, 5, 90, 50, Gray(40), 777)
	b.TextBlock(5, 5, 90, 50, Gray(40), 777)
	d, err := MeanAbsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("same seed differs: %v", d)
	}
	c := New(100, 60)
	c.TextBlock(5, 5, 90, 50, Gray(40), 778)
	d2, _ := MeanAbsDiff(a, c)
	if d2 == 0 {
		t.Fatal("different seeds render identically")
	}
}

func TestNoiseBoundedAndDeterministic(t *testing.T) {
	base := New(50, 50)
	base.FillRect(0, 0, 50, 50, Gray(128))
	a := base.Clone()
	a.Noise(42)
	for i := 0; i < len(a.Pix); i += 4 {
		for ch := 0; ch < 3; ch++ {
			v := int(a.Pix[i+ch])
			if v < 128-NoiseAmp || v > 128+NoiseAmp {
				t.Fatalf("noise out of range: %d", v)
			}
		}
		if a.Pix[i+3] != 255 {
			t.Fatal("alpha perturbed")
		}
	}
	b := base.Clone()
	b.Noise(42)
	if d, _ := MeanAbsDiff(a, b); d != 0 {
		t.Fatal("noise not deterministic per seed")
	}
}

func TestGrayscale(t *testing.T) {
	im := New(2, 1)
	im.Set(0, 0, RGB(255, 0, 0))
	im.Set(1, 0, RGB(0, 255, 0))
	g := im.Grayscale()
	if g[0] != 76 { // 0.299*255
		t.Fatalf("red gray = %d", g[0])
	}
	if g[1] != 149 { // 0.587*255
		t.Fatalf("green gray = %d", g[1])
	}
}

func TestResizeGrayUniform(t *testing.T) {
	im := New(64, 64)
	im.Fill(Gray(200))
	out := im.ResizeGray(9, 8)
	if len(out) != 72 {
		t.Fatalf("len = %d", len(out))
	}
	for _, v := range out {
		if v != 200 {
			t.Fatalf("resized value = %d", v)
		}
	}
}

func TestResizeGrayHalves(t *testing.T) {
	im := New(10, 10)
	im.FillRect(0, 0, 5, 10, Gray(0))   // left black
	im.FillRect(5, 0, 5, 10, Gray(255)) // right white
	out := im.ResizeGray(2, 1)
	if out[0] >= 10 || out[1] <= 245 {
		t.Fatalf("halves = %v", out)
	}
}

func TestResizeGrayUpscale(t *testing.T) {
	im := New(2, 2)
	im.Fill(Gray(7))
	out := im.ResizeGray(5, 5)
	for _, v := range out {
		if v != 7 {
			t.Fatalf("upscaled value %d", v)
		}
	}
}

func TestEncodePNG(t *testing.T) {
	im := New(16, 16)
	im.FillRect(2, 2, 8, 8, RGB(200, 30, 30))
	var buf bytes.Buffer
	if err := im.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 || !bytes.HasPrefix(buf.Bytes(), []byte("\x89PNG")) {
		t.Fatal("no PNG signature")
	}
}

func TestMeanAbsDiffSizeMismatch(t *testing.T) {
	if _, err := MeanAbsDiff(New(2, 2), New(3, 3)); err == nil {
		t.Fatal("size mismatch not reported")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(4, 4)
	b := a.Clone()
	b.Set(0, 0, Gray(0))
	if a.At(0, 0) == Gray(0) {
		t.Fatal("clone shares pixels")
	}
}

// Property: FillRect never touches pixels outside the rectangle.
func TestFillRectProperty(t *testing.T) {
	f := func(xr, yr, wr, hr uint8) bool {
		im := New(16, 16)
		x, y := int(xr%20)-2, int(yr%20)-2
		w, h := int(wr%20), int(hr%20)
		im.FillRect(x, y, w, h, Gray(0))
		for py := 0; py < 16; py++ {
			for px := 0; px < 16; px++ {
				inside := px >= x && px < x+w && py >= y && py < y+h
				black := im.At(px, py) == Gray(0)
				if black && !inside {
					return false
				}
				if inside && !black {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
