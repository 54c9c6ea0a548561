package browser

import (
	"testing"

	"repro/internal/dom"
	"repro/internal/phash"
	"repro/internal/screenshot"
	"repro/internal/vclock"
	"repro/internal/webtx"
)

// TestScreenshotHashMatchesScreenshot checks the contract ScreenshotHash
// documents: its hash is phash.DHash of the Screenshot image, with and
// without a capture cache, for a sized page, a size-less page under
// device emulation, and an empty document. Screenshot is the naive
// Render path; ScreenshotHash goes through the fused kernel and, with a
// cache, the memo.
func TestScreenshotHashMatchesScreenshot(t *testing.T) {
	internet := webtx.NewInternet()
	internet.Register("sized.com", webtx.HandlerFunc(func(*webtx.Request) *webtx.Response {
		root := dom.NewElement("body")
		root.W, root.H = 1024, 768
		root.Style.Background = 0x3366aa
		box := dom.NewElement("div")
		box.X, box.Y, box.W, box.H = 100, 80, 600, 300
		box.Style.Background = 0xf0e0d0
		box.Text = "your computer is infected"
		root.Append(box)
		return webtx.DocumentPage(&dom.Document{Root: root})
	}))
	internet.Register("sizeless.com", webtx.HandlerFunc(func(*webtx.Request) *webtx.Response {
		root := dom.NewElement("body")
		root.Style.Background = 0xeeeeee
		p := dom.NewElement("p")
		p.X, p.Y, p.W, p.H = 10, 10, 200, 60
		p.Text = "claim your prize"
		root.Append(p)
		return webtx.DocumentPage(&dom.Document{Root: root})
	}))
	internet.Register("empty.com", webtx.HandlerFunc(func(*webtx.Request) *webtx.Response {
		return webtx.DocumentPage(&dom.Document{})
	}))

	for _, cached := range []bool{false, true} {
		opts := defaultOpts()
		opts.UserAgent = webtx.UAChromeAndroid
		opts.DeviceEmulation = true
		opts.ViewportScale = 4
		if cached {
			opts.Capture = screenshot.NewCache(0, nil)
		}
		b := New(internet, vclock.New(), opts)
		for _, url := range []string{"http://sized.com/", "http://sizeless.com/", "http://empty.com/"} {
			tab, err := b.Visit(url)
			if err != nil {
				t.Fatal(err)
			}
			// Twice: with a cache, the second ScreenshotHash is a hit.
			for round := 0; round < 2; round++ {
				img, err := b.Screenshot(tab)
				if err != nil {
					t.Fatalf("cached=%v %s: Screenshot: %v", cached, url, err)
				}
				h, err := b.ScreenshotHash(tab)
				if err != nil {
					t.Fatalf("cached=%v %s: ScreenshotHash: %v", cached, url, err)
				}
				if want := phash.DHash(img); h != want {
					t.Fatalf("cached=%v %s round %d: ScreenshotHash %v != DHash(Screenshot) %v",
						cached, url, round, h, want)
				}
			}
		}
		if cached {
			if hits, _, _ := opts.Capture.Stats(); hits == 0 {
				t.Fatalf("cached run never hit the capture cache")
			}
		}

		tab, err := b.Visit("http://sized.com/")
		if err != nil {
			t.Fatal(err)
		}
		tab.blocked = true
		if _, err := b.Screenshot(tab); err != ErrTabBlocked {
			t.Fatalf("cached=%v: Screenshot on a blocked tab: %v", cached, err)
		}
		if _, err := b.ScreenshotHash(tab); err != ErrTabBlocked {
			t.Fatalf("cached=%v: ScreenshotHash on a blocked tab: %v", cached, err)
		}
	}
}
