// Package phonebl harvests scam telephone numbers from technical-support
// SE attack pages and maintains a phone blacklist — the defensive
// application the paper points out in Section 4.3: "Our system provides
// an automatic real-time way to collect these scam phone numbers and add
// to a blacklist to protect users." (Tech-support scams are
// cross-channel: the web page is only the lure; the monetisation happens
// over the phone, so phone blacklists complement URL blacklists.)
package phonebl

import (
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"
)

// nanpPattern matches North-American-style numbers in the forms scam
// pages render them: +1-800-555-0123, 1 (844) 555-0123, 877.555.0123.
var nanpPattern = regexp.MustCompile(
	`(?:\+?1[-. (]*)?(8\d{2}|\d{3})[-. )]+(\d{3})[-. ]+(\d{4})`)

// Extract returns the distinct phone numbers found in text, normalised
// to +1-NXX-NXX-XXXX form, in order of first appearance.
func Extract(text string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range findNumbers(text) {
		n := Normalize(m[1] + m[2] + m[3])
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	return out
}

// findNumbers returns nanpPattern's submatches in text, exactly as
// nanpPattern.FindAllStringSubmatch(text, -1) does, but runs the regexp
// only on candidate runs. Every byte a match can hold is in
// [0-9+\-. ()], and a match holds at least 10 digits, so each match lies
// within one maximal run of those bytes that holds 10 or more digits.
// The pattern has no anchors or assertions, so a run on its own matches
// as it does in place. Serialized pages are mostly markup, so most of
// the text never reaches the backtracking matcher.
func findNumbers(text string) [][]string {
	var out [][]string
	for i := 0; i < len(text); {
		if !numberByte(text[i]) {
			i++
			continue
		}
		j, digits := i, 0
		for ; j < len(text) && numberByte(text[j]); j++ {
			if text[j] >= '0' && text[j] <= '9' {
				digits++
			}
		}
		if digits >= 10 {
			out = append(out, nanpPattern.FindAllStringSubmatch(text[i:j], -1)...)
		}
		i = j
	}
	return out
}

// numberByte reports whether nanpPattern can match byte c.
func numberByte(c byte) bool {
	switch c {
	case '+', '-', '.', ' ', '(', ')':
		return true
	}
	return c >= '0' && c <= '9'
}

// Normalize canonicalises a 10-digit NANP number; returns "" for
// implausible numbers (area code starting with 0/1).
func Normalize(digits string) string {
	var b strings.Builder
	for i := 0; i < len(digits); i++ {
		if digits[i] >= '0' && digits[i] <= '9' {
			b.WriteByte(digits[i])
		}
	}
	d := b.String()
	if len(d) == 11 && d[0] == '1' {
		d = d[1:]
	}
	if len(d) != 10 || d[0] < '2' {
		return ""
	}
	return "+1-" + d[0:3] + "-" + d[3:6] + "-" + d[6:10]
}

// Entry is one blacklisted number with provenance.
type Entry struct {
	Number    string
	FirstSeen time.Time
	// Sources are the attack hosts the number was harvested from.
	Sources []string
	// Sightings counts harvest events.
	Sightings int
}

// Blacklist accumulates harvested numbers. Safe for concurrent use.
type Blacklist struct {
	mu      sync.Mutex
	entries map[string]*Entry
}

// NewBlacklist returns an empty blacklist.
func NewBlacklist() *Blacklist {
	return &Blacklist{entries: map[string]*Entry{}}
}

// Add records a sighting of number on source at time t. Returns true if
// the number is new to the blacklist.
func (b *Blacklist) Add(number, source string, t time.Time) bool {
	n := Normalize(number)
	if n == "" {
		n = number // accept pre-normalised input verbatim
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[n]
	if !ok {
		e = &Entry{Number: n, FirstSeen: t}
		b.entries[n] = e
	}
	e.Sightings++
	for _, s := range e.Sources {
		if s == source {
			source = ""
			break
		}
	}
	if source != "" {
		e.Sources = append(e.Sources, source)
	}
	return !ok
}

// HarvestText extracts all numbers from text and records them.
func (b *Blacklist) HarvestText(text, source string, t time.Time) int {
	added := 0
	for _, n := range Extract(text) {
		if b.Add(n, source, t) {
			added++
		}
	}
	return added
}

// Contains reports whether a number (any common formatting) is listed.
func (b *Blacklist) Contains(number string) bool {
	n := Normalize(number)
	if n == "" {
		n = number
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.entries[n]
	return ok
}

// Len returns the number of distinct listed numbers.
func (b *Blacklist) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// Entries returns a sorted snapshot.
func (b *Blacklist) Entries() []Entry {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Entry, 0, len(b.entries))
	for _, e := range b.entries {
		cp := *e
		cp.Sources = append([]string(nil), e.Sources...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Number < out[j].Number })
	return out
}
