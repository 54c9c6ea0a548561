package phash

import (
	"testing"
	"testing/quick"

	"repro/internal/imaging"
)

// renderTemplate draws a synthetic "landing page" with template-dependent
// layout; noiseSeed perturbs pixels slightly, as dynamic page content does.
func renderTemplate(template int, noiseSeed uint64) *imaging.Image {
	im := imaging.New(256, 192)
	switch template % 3 {
	case 0: // fake-flash update dialog
		im.FillRect(0, 0, 256, 40, imaging.RGB(180, 30, 30))
		im.FillRect(40, 60, 176, 80, imaging.Gray(230))
		im.Border(40, 60, 176, 80, 3, imaging.Gray(60))
		im.TextBlock(50, 70, 150, 40, imaging.Gray(40), 1)
		im.FillRect(90, 120, 80, 16, imaging.RGB(40, 160, 40))
	case 1: // tech-support scare page
		im.FillRect(0, 0, 256, 192, imaging.RGB(0, 60, 160))
		im.TextBlock(20, 20, 216, 100, imaging.Gray(255), 2)
		im.FillRect(20, 140, 216, 30, imaging.Gray(240))
	case 2: // lottery wheel
		im.FillRect(0, 0, 256, 192, imaging.RGB(250, 210, 60))
		im.FillRect(78, 46, 100, 100, imaging.RGB(200, 40, 120))
		im.TextBlock(10, 160, 236, 24, imaging.Gray(20), 3)
	}
	im.Noise(noiseSeed)
	return im
}

func TestSameTemplateSmallDistance(t *testing.T) {
	for tmpl := 0; tmpl < 3; tmpl++ {
		a := DHash(renderTemplate(tmpl, 11))
		b := DHash(renderTemplate(tmpl, 99))
		if d := Distance(a, b); d > 12 { // paper eps=0.1 => 12.8 bits
			t.Errorf("template %d: distance %d across noise seeds", tmpl, d)
		}
	}
}

func TestDifferentTemplatesLargeDistance(t *testing.T) {
	h := make([]Hash, 3)
	for tmpl := 0; tmpl < 3; tmpl++ {
		h[tmpl] = DHash(renderTemplate(tmpl, 5))
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if d := Distance(h[i], h[j]); d <= 20 {
				t.Errorf("templates %d vs %d too close: %d", i, j, d)
			}
		}
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	f := func(a1, a2, b1, b2, c1, c2 uint64) bool {
		a, b, c := Hash{a1, a2}, Hash{b1, b2}, Hash{c1, c2}
		dab, dba := Distance(a, b), Distance(b, a)
		if dab != dba { // symmetry
			return false
		}
		if Distance(a, a) != 0 { // identity
			return false
		}
		if dab < 0 || dab > Bits {
			return false
		}
		// Triangle inequality.
		return Distance(a, c) <= dab+Distance(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormDistanceRange(t *testing.T) {
	a := Hash{0, 0}
	b := Hash{^uint64(0), ^uint64(0)}
	if got := NormDistance(a, b); got != 1.0 {
		t.Fatalf("max norm distance = %v", got)
	}
	if got := NormDistance(a, a); got != 0 {
		t.Fatalf("self distance = %v", got)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		h := Hash{hi, lo}
		parsed, err := ParseHash(h.String())
		return err == nil && parsed == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseHashRejects(t *testing.T) {
	if _, err := ParseHash("short"); err == nil {
		t.Fatal("short string accepted")
	}
	if _, err := ParseHash("zz" + "00000000000000000000000000000w"); err == nil {
		t.Fatal("non-hex accepted")
	}
}

func TestFlipBits(t *testing.T) {
	var h Hash
	h2 := h.FlipBits(0, 63, 64, 127)
	if d := Distance(h, h2); d != 4 {
		t.Fatalf("distance after 4 flips = %d", d)
	}
	// Flipping the same bit twice restores it.
	if h.FlipBits(7, 7) != h {
		t.Fatal("double flip changed hash")
	}
	// Negative and >=128 positions wrap.
	if h.FlipBits(-1) != h.FlipBits(127) {
		t.Fatal("negative position does not wrap")
	}
	if h.FlipBits(128) != h.FlipBits(0) {
		t.Fatal("position 128 does not wrap")
	}
}

func TestDHashDeterministic(t *testing.T) {
	a := DHash(renderTemplate(1, 42))
	b := DHash(renderTemplate(1, 42))
	if a != b {
		t.Fatalf("same image hashed differently: %v vs %v", a, b)
	}
}

func TestDHashInsensitiveToScale(t *testing.T) {
	// The same layout at double resolution should hash very close: dhash
	// works on a downscaled grid.
	small := imaging.New(128, 96)
	big := imaging.New(256, 192)
	for _, im := range []*imaging.Image{small, big} {
		w, h := im.W, im.H
		im.FillRect(0, 0, w, h/4, imaging.Gray(30))
		im.FillRect(w/4, h/2, w/2, h/4, imaging.RGB(200, 60, 60))
	}
	if d := Distance(DHash(small), DHash(big)); d > 8 {
		t.Fatalf("scale sensitivity: distance %d", d)
	}
}
