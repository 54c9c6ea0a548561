package phonebl

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vclock"
)

func TestExtractFormats(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"CALL NOW +1-800-555-0123", []string{"+1-800-555-0123"}},
		{"call 1 (844) 555-0199 today", []string{"+1-844-555-0199"}},
		{"dial 877.555.0100 immediately", []string{"+1-877-555-0100"}},
		{"support: 866-555-0142.", []string{"+1-866-555-0142"}},
		{"no numbers here", nil},
		{"two: +1-800-555-0001 and 1-888-555-0002", []string{"+1-800-555-0001", "+1-888-555-0002"}},
		{"dup: 800-555-0001 ... +1 800 555 0001", []string{"+1-800-555-0001"}},
	}
	for _, c := range cases {
		got := Extract(c.text)
		if len(got) != len(c.want) {
			t.Errorf("Extract(%q) = %v, want %v", c.text, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Extract(%q)[%d] = %q, want %q", c.text, i, got[i], c.want[i])
			}
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"8005550123", "+1-800-555-0123"},
		{"18005550123", "+1-800-555-0123"},
		{"+1-800-555-0123", "+1-800-555-0123"},
		{"0123456789", ""},   // area code starts with 0
		{"1234567", ""},      // too short
		{"123456789012", ""}, // too long
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(a, b, c uint16) bool {
		digits := Normalize(
			string(rune('2'+a%8)) + pad(a%1000, 2) + pad(uint16(b%1000), 3) + pad(uint16(c%10000), 4))
		if digits == "" {
			return true
		}
		return Normalize(digits) == digits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func pad(v uint16, n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s = string(rune('0'+v%10)) + s
		v /= 10
	}
	return s
}

func TestBlacklistLifecycle(t *testing.T) {
	b := NewBlacklist()
	t0 := vclock.Epoch
	if !b.Add("+1-800-555-0123", "atk1.club", t0) {
		t.Fatal("first add reported as existing")
	}
	if b.Add("800-555-0123", "atk2.club", t0.Add(time.Hour)) {
		t.Fatal("re-add (different format) reported as new")
	}
	if !b.Contains("(800) 555 0123") || !b.Contains("+1-800-555-0123") {
		t.Fatal("format-insensitive lookup failed")
	}
	if b.Contains("+1-877-555-0000") {
		t.Fatal("unknown number listed")
	}
	entries := b.Entries()
	if len(entries) != 1 || b.Len() != 1 {
		t.Fatalf("entries = %v", entries)
	}
	e := entries[0]
	if e.Sightings != 2 || len(e.Sources) != 2 || !e.FirstSeen.Equal(t0) {
		t.Fatalf("entry = %+v", e)
	}
}

func TestBlacklistDuplicateSourceNotRepeated(t *testing.T) {
	b := NewBlacklist()
	b.Add("+1-800-555-0123", "same.club", vclock.Epoch)
	b.Add("+1-800-555-0123", "same.club", vclock.Epoch)
	if got := b.Entries()[0].Sources; len(got) != 1 {
		t.Fatalf("sources = %v", got)
	}
}

func TestHarvestText(t *testing.T) {
	b := NewBlacklist()
	text := `<p id="phone">CALL NOW +1-803-555-7712</p><title>Microsoft Support Alert +1-803-555-7712</title>`
	added := b.HarvestText(text, "atk.club", vclock.Epoch)
	if added != 1 || b.Len() != 1 {
		t.Fatalf("added = %d len = %d", added, b.Len())
	}
	if b.HarvestText("nothing", "x", vclock.Epoch) != 0 {
		t.Fatal("harvest of empty text added numbers")
	}
}

func TestEntriesSorted(t *testing.T) {
	b := NewBlacklist()
	b.Add("+1-900-555-0001", "a", vclock.Epoch)
	b.Add("+1-800-555-0001", "a", vclock.Epoch)
	e := b.Entries()
	if e[0].Number > e[1].Number {
		t.Fatal("entries unsorted")
	}
}

// checkFindNumbers holds the candidate-run scan to the whole-text
// regexp it stands in for.
func checkFindNumbers(t *testing.T, text string) {
	t.Helper()
	want := nanpPattern.FindAllStringSubmatch(text, -1)
	if got := findNumbers(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("findNumbers(%q) = %q, whole-text regexp %q", text, got, want)
	}
}

// TestFindNumbersMatchesWholeText draws texts from number bytes, letters
// and markup, weighted so runs often sit near the 10-digit threshold
// and numbers abut, nest in brackets or straddle letters.
func TestFindNumbersMatchesWholeText(t *testing.T) {
	pieces := []string{
		"0", "1", "5", "8", "9", "+", "-", ".", " ", "(", ")", "+1", "800", "555", "0123",
		"a", "x", "<p>", "</title>", "\t", "é", "CALL NOW ", "1 (844) 555-0199", "877.555.0100",
	}
	s := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(n))
	}
	for trial := 0; trial < 5000; trial++ {
		var b strings.Builder
		for k := next(40); k > 0; k-- {
			b.WriteString(pieces[next(len(pieces))])
		}
		checkFindNumbers(t, b.String())
	}
}

func FuzzFindNumbers(f *testing.F) {
	f.Add("CALL NOW +1-800-555-0123")
	f.Add("two: +1-800-555-0001 and 1-888-555-0002")
	f.Add("1 (844) 555-0199 877.555.0100x866-555-0142.")
	f.Add("12345 67890 (((800)))...555---0123 9")
	f.Fuzz(checkFindNumbers)
}
