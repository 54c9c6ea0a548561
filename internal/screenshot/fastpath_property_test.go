package screenshot

import (
	"testing"

	"repro/internal/dom"
	"repro/internal/phash"
)

// xorshift is the test-local PRNG; deterministic so failures replay.
type xorshift uint64

func (s *xorshift) next() uint64 {
	x := uint64(*s) | 1
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = xorshift(x)
	return x
}

func (s *xorshift) intn(n int) int { return int(s.next() % uint64(n)) }

// randomDoc generates a document tree with randomized depth, geometry,
// styles (including transparent and border-drawing elements) and text,
// covering every branch renderPaints takes.
func randomDoc(rng *xorshift) *dom.Document {
	tags := []string{"div", "button", "iframe", "p", "h1", "img", "span"}
	root := &dom.Element{Tag: "body", W: 400 + rng.intn(1600), H: 300 + rng.intn(1200)}
	root.Style.Background = rng.intn(1 << 24)

	var build func(parent *dom.Element, depth int)
	build = func(parent *dom.Element, depth int) {
		n := rng.intn(5)
		for i := 0; i < n; i++ {
			el := &dom.Element{
				Tag: tags[rng.intn(len(tags))],
				X:   rng.intn(root.W),
				Y:   rng.intn(root.H),
				W:   rng.intn(root.W / 2),
				H:   rng.intn(root.H / 2),
			}
			el.Style.Background = rng.intn(1<<24+1) - 1 // includes -1 (no fill)
			el.Style.Ink = rng.intn(1<<24+1) - 1
			el.Style.ZIndex = rng.intn(5) - 2
			el.Style.Transparent = rng.intn(8) == 0
			if rng.intn(2) == 0 {
				el.Style.TextSeed = rng.next()
			}
			if rng.intn(3) == 0 {
				el.Text = []string{"", "win", "download now", "continue"}[rng.intn(4)]
			}
			parent.Children = append(parent.Children, el)
			if depth < 3 && rng.intn(3) == 0 {
				build(el, depth+1)
			}
		}
	}
	build(root, 0)
	return &dom.Document{Root: root}
}

// TestFastPathPropertyBitIdentical is the fast path's end-to-end
// contract: across randomized documents, viewports, noise settings and
// seeds, the fused + cached capture path (cold miss, warm hit, and the
// uncached CaptureHash) returns hashes bit-identical to
// phash.DHash(Render(...)). The naive Render path is retained exactly
// as the reference this test compares against.
func TestFastPathPropertyBitIdentical(t *testing.T) {
	rng := xorshift(0x5eacfa57)
	cache := NewCache(0, nil)
	viewports := [][2]int{{1024, 768}, {360, 640}, {256, 192}, {97, 61}, {16, 12}, {7, 5}}

	trials := 60
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		doc := randomDoc(&rng)
		vp := viewports[rng.intn(len(viewports))]
		opts := Options{
			Width:     vp[0],
			Height:    vp[1],
			Noise:     rng.intn(2) == 1,
			NoiseSeed: rng.next(),
		}

		want := phash.DHash(Render(doc, opts))

		if got := CaptureHash(doc, opts); got != want {
			t.Fatalf("trial %d (vp=%dx%d noise=%v): CaptureHash %v != naive %v",
				trial, vp[0], vp[1], opts.Noise, got, want)
		}
		if got := cache.Hash(doc, opts); got != want {
			t.Fatalf("trial %d: cold cache.Hash %v != naive %v", trial, got, want)
		}
		if got := cache.Hash(doc, opts); got != want {
			t.Fatalf("trial %d: warm cache.Hash %v != naive %v", trial, got, want)
		}
	}

	hits, misses, _ := cache.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("property run exercised no cache traffic (hits=%d misses=%d)", hits, misses)
	}
}
