// Package imaging provides the small raster toolkit used by the
// screenshot renderer and the perceptual hasher: an RGBA image type,
// drawing primitives (solid fills, borders, hatched "text" blocks,
// deterministic noise), grayscale conversion and box-filter resizing.
//
// The pipeline hashes screenshots with a difference hash (see
// internal/phash); all it needs from rendering is that pages built from
// the same visual template produce near-identical pixel data while pages
// from different templates differ strongly. The primitives here are
// sufficient for that and keep the renderer dependency-free.
package imaging

import (
	"fmt"
	"image"
	"image/png"
	"io"
)

// Image is a simple 8-bit RGBA raster.
type Image struct {
	W, H int
	Pix  []byte // 4 bytes per pixel, row-major
}

// New returns a white image of the given size.
func New(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: invalid size %dx%d", w, h))
	}
	img := &Image{W: w, H: h, Pix: make([]byte, w*h*4)}
	img.Fill(RGB(255, 255, 255))
	return img
}

// Color is an RGBA color.
type Color struct{ R, G, B, A byte }

// RGB builds an opaque Color.
func RGB(r, g, b byte) Color { return Color{r, g, b, 255} }

// Gray builds an opaque gray Color.
func Gray(v byte) Color { return Color{v, v, v, 255} }

func (im *Image) idx(x, y int) int { return (y*im.W + x) * 4 }

// Set writes a pixel, ignoring out-of-bounds coordinates.
func (im *Image) Set(x, y int, c Color) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	i := im.idx(x, y)
	im.Pix[i], im.Pix[i+1], im.Pix[i+2], im.Pix[i+3] = c.R, c.G, c.B, c.A
}

// At reads a pixel; out-of-bounds reads return black.
func (im *Image) At(x, y int) Color {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return Color{}
	}
	i := im.idx(x, y)
	return Color{im.Pix[i], im.Pix[i+1], im.Pix[i+2], im.Pix[i+3]}
}

// Fill paints the whole image.
func (im *Image) Fill(c Color) {
	im.FillRect(0, 0, im.W, im.H, c)
}

// FillRect paints the rectangle [x,x+w) x [y,y+h), clipped to the image.
// Rows are painted by writing the first pixel and then doubling it with
// copy, which the runtime turns into wide memmoves — the renderer's
// hottest primitive (every element box is at least one fill).
func (im *Image) FillRect(x, y, w, h int, c Color) {
	x0, y0, x1, y1 := clip(x, y, w, h, im.W, im.H)
	if x1 <= x0 || y1 <= y0 {
		return
	}
	// Paint the first row pixel by pixel (seed), then double it.
	first := im.Pix[im.idx(x0, y0):im.idx(x1, y0)]
	first[0], first[1], first[2], first[3] = c.R, c.G, c.B, c.A
	for filled := 4; filled < len(first); filled *= 2 {
		copy(first[filled:], first[:filled])
	}
	// Replicate the seeded row into the remaining rows.
	for yy := y0 + 1; yy < y1; yy++ {
		copy(im.Pix[im.idx(x0, yy):im.idx(x1, yy)], first)
	}
}

// Border draws a t-pixel border just inside the rectangle.
func (im *Image) Border(x, y, w, h, t int, c Color) {
	im.FillRect(x, y, w, t, c)
	im.FillRect(x, y+h-t, w, t, c)
	im.FillRect(x, y, t, h, c)
	im.FillRect(x+w-t, y, t, h, c)
}

// TextBlock simulates a block of text: horizontal stripes of "ink" with a
// line height and a ragged right edge derived from seed. The same seed
// always produces the same raggedness, so identical text templates render
// identically.
func (im *Image) TextBlock(x, y, w, h int, ink Color, seed uint64) {
	const lineH, gap = 3, 4
	s := seed
	for ty := y; ty+lineH <= y+h; ty += lineH + gap {
		s = s*6364136223846793005 + 1442695040888963407
		frac := 60 + int(s>>33)%41 // 60..100% of width
		lw := w * frac / 100
		im.FillRect(x, ty, lw, lineH, ink)
	}
}

// NoiseAmp is the capture noise amplitude: Noise moves each pixel
// channel by at most this much. The pipeline captures every screenshot
// either at this amplitude or noise-free.
const NoiseAmp = 2

// noiseMod is the modulus of one noise draw: deltas span
// [-NoiseAmp, NoiseAmp]. Being a constant, the per-channel modulo
// strength-reduces to a multiply, which matters because the noise pass
// touches three channels of every pixel of every capture.
const noiseMod = 2*NoiseAmp + 1

// Noise perturbs each pixel channel by at most NoiseAmp, using a
// deterministic per-seed pseudo-random stream. Small noise models
// capture artefacts (timestamps, dynamic counters) that perceptual
// hashing must tolerate.
func (im *Image) Noise(seed uint64) {
	s := seed | 1
	for i := 0; i+3 < len(im.Pix); i += 4 {
		for j := i; j < i+3; j++ { // leave alpha
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			im.Pix[j] = clampByte(int(im.Pix[j]) + int(s%noiseMod) - NoiseAmp)
		}
	}
}

func clampByte(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// clampLUT5 is the add-clamp table of the noise pass:
// clampLUT5[v+d+NoiseAmp] = clampByte(v+d) for channel value v in
// [0,255] and delta d in [-NoiseAmp, NoiseAmp].
var clampLUT5 = func() (t [256 + 2*NoiseAmp]byte) {
	for i := range t {
		t[i] = clampByte(i - NoiseAmp)
	}
	return
}()

// ClampLUT5 exposes the noise pass's add-clamp table for fused kernels:
// t[v + delta + NoiseAmp] = clampByte(v + delta).
func ClampLUT5() *[256 + 2*NoiseAmp]byte { return &clampLUT5 }

// NoisyGrayInto writes into dst (length W*H) the Rec.601 luminance the
// image would have after Noise(seed), without mutating the pixel data:
// the per-seed noise stream is applied to each channel during the
// luminance conversion, with arithmetic identical to Noise followed by
// Grayscale. It returns dst.
//
// This is the capture fast path's fused pass: one traversal replaces
// the mutate-every-pixel Noise pass plus the separate Grayscale pass,
// and the source image stays pristine.
func (im *Image) NoisyGrayInto(dst []byte, seed uint64) []byte {
	s := seed | 1
	for p, i := 0, 0; p < len(dst); p, i = p+1, i+4 {
		var ch [3]int
		for j := 0; j < 3; j++ {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			ch[j] = int(clampByte(int(im.Pix[i+j]) + int(s%noiseMod) - NoiseAmp))
		}
		dst[p] = byte((299*ch[0] + 587*ch[1] + 114*ch[2]) / 1000)
	}
	return dst
}

// Grayscale returns a luminance view of the image as a W*H byte slice
// using the Rec.601 weights.
func (im *Image) Grayscale() []byte {
	out := make([]byte, im.W*im.H)
	for p, i := 0, 0; p < len(out); p, i = p+1, i+4 {
		r, g, b := int(im.Pix[i]), int(im.Pix[i+1]), int(im.Pix[i+2])
		out[p] = byte((299*r + 587*g + 114*b) / 1000)
	}
	return out
}

// ResizeGray box-filters the image's grayscale view down (or up) to w x h.
// It is the preprocessing step for perceptual hashing.
func (im *Image) ResizeGray(w, h int) []byte {
	return ResizeGrayFrom(im.Grayscale(), im.W, im.H, w, h)
}

// ResizeGrayFrom box-filters an existing grayscale buffer (srcW x srcH,
// row-major) down (or up) to w x h. The hasher uses it to derive both
// dhash grids from a single grayscale conversion instead of one per
// grid.
func ResizeGrayFrom(gray []byte, srcW, srcH, w, h int) []byte {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: invalid resize %dx%d", w, h))
	}
	out := make([]byte, w*h)
	for oy := 0; oy < h; oy++ {
		y0, y1 := oy*srcH/h, (oy+1)*srcH/h
		if y1 <= y0 {
			y1 = y0 + 1
		}
		if y1 > srcH {
			y1 = srcH
		}
		for ox := 0; ox < w; ox++ {
			x0, x1 := ox*srcW/w, (ox+1)*srcW/w
			if x1 <= x0 {
				x1 = x0 + 1
			}
			if x1 > srcW {
				x1 = srcW
			}
			var sum, n int
			for yy := y0; yy < y1; yy++ {
				row := yy * srcW
				for xx := x0; xx < x1; xx++ {
					sum += int(gray[row+xx])
					n++
				}
			}
			out[oy*w+ox] = byte(sum / n)
		}
	}
	return out
}

// EncodePNG writes the image as PNG. Used by the figure benches and
// example programs to emit the paper's screenshot figures. The stdlib
// image wraps the existing pixel buffer — no copy is made.
func (im *Image) EncodePNG(w io.Writer) error {
	dst := &image.RGBA{Pix: im.Pix, Stride: im.W * 4, Rect: image.Rect(0, 0, im.W, im.H)}
	return png.Encode(w, dst)
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	out := &Image{W: im.W, H: im.H, Pix: make([]byte, len(im.Pix))}
	copy(out.Pix, im.Pix)
	return out
}

// MeanAbsDiff returns the mean absolute per-channel difference between two
// same-sized images; a crude similarity metric used in tests.
func MeanAbsDiff(a, b *Image) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("imaging: size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var sum int64
	for i := range a.Pix {
		d := int64(a.Pix[i]) - int64(b.Pix[i])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return float64(sum) / float64(len(a.Pix)), nil
}

func clip(x, y, w, h, maxW, maxH int) (x0, y0, x1, y1 int) {
	x0, y0, x1, y1 = x, y, x+w, y+h
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > maxW {
		x1 = maxW
	}
	if y1 > maxH {
		y1 = maxH
	}
	if x1 < x0 {
		x1 = x0
	}
	if y1 < y0 {
		y1 = y0
	}
	return
}
