// Package screenshot rasterises DOM trees into images — the simulator's
// stand-in for the browser screenshots the paper's crawler captures at
// every click (Section 3.2) and perceptually hashes for campaign
// discovery (Section 3.3).
//
// Rendering is intentionally simple: element boxes are painted in
// z-order with their background fills, borders and deterministic text
// blocks. What matters for the pipeline is the invariant the real system
// relies on: pages built from the same visual template produce
// near-identical pixels (small dhash distance) while different templates
// differ strongly.
package screenshot

import (
	"sort"

	"repro/internal/dom"
	"repro/internal/imaging"
)

// Options control rendering.
type Options struct {
	// Width and Height of the viewport; zero values default to 1024x768.
	Width, Height int
	// NoiseAmp adds deterministic per-seed pixel noise, modelling dynamic
	// page content (counters, timestamps). Zero disables.
	NoiseAmp int
	// NoiseSeed selects the noise pattern (vary per capture).
	NoiseSeed uint64
}

// DefaultViewport is the desktop viewport used when Options are zero.
const (
	DefaultWidth  = 1024
	DefaultHeight = 768
)

// normalize resolves zero viewport dimensions to the defaults.
func (o Options) normalize() Options {
	if o.Width <= 0 {
		o.Width = DefaultWidth
	}
	if o.Height <= 0 {
		o.Height = DefaultHeight
	}
	return o
}

// Render paints the document into a fresh image. This is the naive
// reference path: it allocates its own canvas and mutates the pixels
// with the noise pass. The capture fast path (CaptureHash, Cache)
// produces byte-identical hashes from pooled buffers, with noise fused
// into the hash kernel.
func Render(doc *dom.Document, opts Options) *imaging.Image {
	opts = opts.normalize()
	img := imaging.New(opts.Width, opts.Height)
	if doc == nil || doc.Root == nil {
		return img
	}
	renderPaints(img, doc, paintList(doc))
	if opts.NoiseAmp > 0 {
		img.Noise(opts.NoiseAmp, opts.NoiseSeed)
	}
	return img
}

// paintList collects the document's elements in stable z-order:
// sort.SliceStable keeps document order among equal z-indices. It is
// rebuilt for every capture; no cache keeps it, so a rendered tree
// never outlives the capture that walked it.
func paintList(doc *dom.Document) []*dom.Element {
	var paints []*dom.Element
	doc.Root.Walk(func(el *dom.Element) bool {
		paints = append(paints, el)
		return true
	})
	sort.SliceStable(paints, func(i, j int) bool {
		return paints[i].Style.ZIndex < paints[j].Style.ZIndex
	})
	return paints
}

// renderPaints paints a prepared paint list onto the canvas. The
// capture is a scaled view of the document: element geometry is mapped
// from document coordinates onto the target canvas, as a real browser
// screenshot scales the rendered page rather than cropping its
// top-left corner.
func renderPaints(img *imaging.Image, doc *dom.Document, paints []*dom.Element) {
	w, h := img.W, img.H
	docW, docH := doc.Root.W, doc.Root.H
	if docW <= 0 {
		docW = w
	}
	if docH <= 0 {
		docH = h
	}
	sx := float64(w) / float64(docW)
	sy := float64(h) / float64(docH)
	scaleX := func(v int) int { return int(float64(v) * sx) }
	scaleY := func(v int) int { return int(float64(v) * sy) }

	for _, el := range paints {
		if el.Style.Transparent || el.W <= 0 || el.H <= 0 {
			continue
		}
		x, y := scaleX(el.X), scaleY(el.Y)
		ew, eh := scaleX(el.W), scaleY(el.H)
		if ew < 1 {
			ew = 1
		}
		if eh < 1 {
			eh = 1
		}
		if el.Style.Background >= 0 {
			img.FillRect(x, y, ew, eh, rgb(el.Style.Background))
			// A subtle border keeps adjacent same-color boxes visually
			// distinct, as real boxes have edges.
			if el.Tag == "div" || el.Tag == "button" || el.Tag == "iframe" {
				img.Border(x, y, ew, eh, 1, darken(el.Style.Background))
			}
		}
		if el.Text != "" || el.Tag == "p" || el.Tag == "h1" {
			ink := el.Style.Ink
			if ink < 0 {
				ink = 0x202020
			}
			seed := el.Style.TextSeed
			if seed == 0 {
				seed = hashString(el.Text) | 1
			}
			pad := 2
			img.TextBlock(x+pad, y+pad, ew-2*pad, eh-2*pad, rgb(ink), seed)
		}
	}
}

func rgb(v int) imaging.Color {
	return imaging.RGB(byte(v>>16), byte(v>>8), byte(v))
}

func darken(v int) imaging.Color {
	r, g, b := (v>>16)&0xff, (v>>8)&0xff, v&0xff
	return imaging.RGB(byte(r*2/3), byte(g*2/3), byte(b*2/3))
}

func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
