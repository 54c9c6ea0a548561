package screenshot

import (
	"testing"

	"repro/internal/dom"
	"repro/internal/imaging"
	"repro/internal/phash"
)

func colorPage(bg int) *dom.Document {
	root := dom.NewElement("body")
	root.W, root.H = 200, 150
	root.Style.Background = bg
	box := dom.NewElement("div")
	box.X, box.Y, box.W, box.H = 40, 30, 100, 80
	box.Style.Background = 0xffffff
	root.Append(box)
	return &dom.Document{Root: root}
}

func TestRenderDefaultViewport(t *testing.T) {
	img := Render(colorPage(0x2050b0), Options{})
	if img.W != DefaultWidth || img.H != DefaultHeight {
		t.Fatalf("size = %dx%d", img.W, img.H)
	}
}

func TestRenderNilDoc(t *testing.T) {
	img := Render(nil, Options{Width: 10, Height: 10})
	if img.At(5, 5) != imaging.RGB(255, 255, 255) {
		t.Fatal("nil doc should render white")
	}
}

func TestRenderPaintsBackgroundAndBox(t *testing.T) {
	img := Render(colorPage(0xff0000), Options{Width: 200, Height: 150})
	if got := img.At(5, 5); got != imaging.RGB(255, 0, 0) {
		t.Fatalf("background = %+v", got)
	}
	if got := img.At(90, 70); got != imaging.RGB(255, 255, 255) {
		t.Fatalf("box interior = %+v", got)
	}
}

func TestTransparentElementsInvisible(t *testing.T) {
	doc := colorPage(0x00ff00)
	overlay := dom.NewElement("div")
	overlay.W, overlay.H = 200, 150
	overlay.Style.Transparent = true
	overlay.Style.ZIndex = 9999
	overlay.Style.Background = 0x000000
	doc.Root.Append(overlay)
	img := Render(doc, Options{Width: 200, Height: 150})
	if got := img.At(5, 5); got != imaging.RGB(0, 255, 0) {
		t.Fatalf("transparent overlay painted: %+v", got)
	}
}

func TestZIndexPaintOrder(t *testing.T) {
	root := dom.NewElement("body")
	root.W, root.H = 100, 100
	under := dom.NewElement("div")
	under.W, under.H = 100, 100
	under.Style.Background = 0x0000ff
	under.Style.ZIndex = 5
	over := dom.NewElement("div")
	over.W, over.H = 100, 100
	over.Style.Background = 0xff0000
	over.Style.ZIndex = 1
	// Document order: over first, under second — but z-index must win.
	root.Append(over, under)
	img := Render(&dom.Document{Root: root}, Options{Width: 100, Height: 100})
	if got := img.At(50, 50); got != imaging.RGB(0, 0, 255) {
		t.Fatalf("top pixel = %+v", got)
	}
}

func TestSameDocStableHash(t *testing.T) {
	a := Render(colorPage(0x123456), Options{Width: 256, Height: 192})
	b := Render(colorPage(0x123456), Options{Width: 256, Height: 192})
	if phash.DHash(a) != phash.DHash(b) {
		t.Fatal("same doc renders to different hashes")
	}
}

func TestNoiseKeepsHashClose(t *testing.T) {
	doc := colorPage(0x446688)
	a := Render(doc, Options{Width: 256, Height: 192, Noise: true, NoiseSeed: 1})
	b := Render(doc, Options{Width: 256, Height: 192, Noise: true, NoiseSeed: 999})
	if d := phash.Distance(phash.DHash(a), phash.DHash(b)); d > 12 {
		t.Fatalf("noise moved hash %d bits", d)
	}
}

func TestTextRendering(t *testing.T) {
	root := dom.NewElement("body")
	root.W, root.H = 200, 100
	root.Style.Background = 0xffffff
	p := dom.NewElement("p")
	p.X, p.Y, p.W, p.H = 10, 10, 180, 80
	p.Style.Ink = 0x000000
	p.Style.TextSeed = 7
	root.Append(p)
	img := Render(&dom.Document{Root: root}, Options{Width: 200, Height: 100})
	// Some ink must be present.
	dark := 0
	for y := 0; y < 100; y++ {
		for x := 0; x < 200; x++ {
			if img.At(x, y).R < 100 {
				dark++
			}
		}
	}
	if dark == 0 {
		t.Fatal("text block rendered no ink")
	}
}
