// Package gsb simulates the Google Safe Browsing URL blacklist the paper
// measures SEACMA campaigns against (Sections 4.3 and 4.5).
//
// The real GSB detects malicious domains on its own schedule; the paper's
// headline findings are that (1) many SEACMA categories evade it entirely,
// (2) detection, when it happens, lags domain birth by more than 7 days on
// average, and (3) initially only ~1.4% of freshly milked domains are
// blacklisted, rising to ~16% months later (Table 4).
//
// The simulator reproduces those dynamics with a per-category detection
// model: when a malicious domain is born, the blacklist draws whether it
// will ever be detected (per-category probability) and, if so, after what
// lag (log-normal, mean above 7 days). Lookups are then a pure function of
// virtual time. Benign domains are never listed — the paper reports no
// false positives in its GSB interactions.
package gsb

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// DetectionProfile describes how the blacklist treats one category of
// SE-attack domain.
type DetectionProfile struct {
	// DetectProb is the probability a domain of this category is ever
	// added to the blacklist.
	DetectProb float64
	// LagMeanDays and LagSigma parameterise the log-normal detection lag
	// (in days) for detected domains.
	LagMeanDays float64
	LagSigma    float64
	// FastProb is the fraction of detected domains caught quickly (an
	// exponential tail with mean FastLagHours) — what makes a small
	// percentage of freshly milked domains already listed at discovery
	// (Table 4's GSB-init ≈ 1.4%).
	FastProb     float64
	FastLagHours float64
}

// DefaultProfiles calibrates detection to the paper's Tables 1 and 4:
// Fake Software and Lottery domains are sometimes caught, Technical
// Support eventually often is, and Registration / Chrome Notifications /
// Scareware evade GSB completely.
var DefaultProfiles = map[string]DetectionProfile{
	"fake-software":        {DetectProb: 0.20, LagMeanDays: 13, LagSigma: 0.6, FastProb: 0.20, FastLagHours: 2},
	"lottery":              {DetectProb: 0.18, LagMeanDays: 13, LagSigma: 0.5, FastProb: 0.25, FastLagHours: 2},
	"registration":         {DetectProb: 0.0},
	"chrome-notifications": {DetectProb: 0.03, LagMeanDays: 20, LagSigma: 0.4},
	"scareware":            {DetectProb: 0.0},
	"tech-support":         {DetectProb: 0.60, LagMeanDays: 14, LagSigma: 0.7, FastProb: 0.08, FastLagHours: 3},
}

type entry struct {
	category   string
	born       time.Time
	detected   bool
	detectedAt time.Time
}

// shardCount divides the domain space; a power of two so the shard
// index is a mask of the domain hash. 16 shards cut lock contention
// well below the milker's worker counts without bloating the struct.
const shardCount = 16

// shard holds one partition of the entry table. Entries are immutable
// after insertion (the detection draw is fixed at observation), so
// lookups take only the read lock.
type shard struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// Blacklist is the simulated Safe Browsing service. It is safe for
// concurrent use: the entry table is sharded by domain hash so the
// attack domains that crawl workers and milking probes mint
// concurrently are observed without serializing on one mutex, and the
// load counter is atomic.
type Blacklist struct {
	profiles map[string]DetectionProfile
	src      *rng.Source
	shards   [shardCount]shard
	lookups  atomic.Int64
}

// NewBlacklist returns a blacklist with the given per-category profiles
// (nil means DefaultProfiles) drawing randomness from src.
func NewBlacklist(profiles map[string]DetectionProfile, src *rng.Source) *Blacklist {
	if profiles == nil {
		profiles = DefaultProfiles
	}
	b := &Blacklist{
		profiles: profiles,
		src:      src.Split("gsb"),
	}
	for i := range b.shards {
		b.shards[i].entries = map[string]*entry{}
	}
	return b
}

// shardFor returns the shard owning domain (FNV-1a of the name).
func (b *Blacklist) shardFor(domain string) *shard {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(domain); i++ {
		h ^= uint64(domain[i])
		h *= 1099511628211
	}
	return &b.shards[h&(shardCount-1)]
}

// ObserveMaliciousDomain tells the simulator a malicious domain of the
// given category came into existence at born. Idempotent per domain: the
// first observation fixes the detection draw. This is called by the world
// generator (the omniscient side), never by the pipeline.
func (b *Blacklist) ObserveMaliciousDomain(domain, category string, born time.Time) {
	s := b.shardFor(domain)
	s.mu.RLock()
	_, ok := s.entries[domain]
	s.mu.RUnlock()
	if ok {
		return
	}
	e := &entry{category: category, born: born}
	p := b.profiles[category]
	// The detection draw is keyed per domain, not pulled from the shared
	// sequential stream: domains can be observed in any order (parallel
	// milking mints them concurrently) and must still receive the same
	// detection fate and lag. The draw happens outside the shard lock —
	// it is a pure function of (seed, domain), so a concurrent double
	// observation computes the identical entry and first-write-wins
	// below changes nothing.
	src := b.src.Split(domain)
	if src.Bool(p.DetectProb) {
		e.detected = true
		if p.FastProb > 0 && src.Bool(p.FastProb) {
			lagHours := src.Exp(p.FastLagHours)
			e.detectedAt = born.Add(time.Duration(lagHours * float64(time.Hour)))
		} else {
			lagDays := src.LogNormal(logMeanFor(p.LagMeanDays, p.LagSigma), p.LagSigma)
			e.detectedAt = born.Add(time.Duration(lagDays * 24 * float64(time.Hour)))
		}
	}
	s.mu.Lock()
	if _, ok := s.entries[domain]; !ok {
		s.entries[domain] = e
	}
	s.mu.Unlock()
}

// logMeanFor converts a desired arithmetic mean of a log-normal with the
// given sigma into the underlying normal's mu: mean = exp(mu + sigma^2/2).
func logMeanFor(mean, sigma float64) float64 {
	if mean <= 0 {
		return 0
	}
	return math.Log(mean) - sigma*sigma/2
}

// Lookup reports whether domain is blacklisted at virtual time t. This is
// the pipeline-facing API (the paper polls it every 30 minutes during
// milking).
func (b *Blacklist) Lookup(domain string, t time.Time) bool {
	b.lookups.Add(1)
	s := b.shardFor(domain)
	s.mu.RLock()
	e, ok := s.entries[domain]
	s.mu.RUnlock()
	if !ok {
		return false
	}
	return e.detected && !t.Before(e.detectedAt)
}

// DetectionLag returns, for a domain the blacklist eventually detects, the
// lag between birth and listing. ok is false for unknown or never-detected
// domains. Used by the measurement layer to reproduce the "GSB is more
// than 7 days slower" result.
func (b *Blacklist) DetectionLag(domain string) (time.Duration, bool) {
	s := b.shardFor(domain)
	s.mu.RLock()
	e, ok := s.entries[domain]
	s.mu.RUnlock()
	if !ok || !e.detected {
		return 0, false
	}
	return e.detectedAt.Sub(e.born), true
}

// LookupCount returns the number of Lookup calls served (load accounting).
func (b *Blacklist) LookupCount() int {
	return int(b.lookups.Load())
}

// ObservedDomains returns all observed domains, sorted; for tests.
func (b *Blacklist) ObservedDomains() []string {
	var out []string
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.RLock()
		for d := range s.entries {
			out = append(out, d)
		}
		s.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// EventualDetectionRate returns the fraction of observed domains in
// category that the blacklist will ever detect. Ground-truth metric for
// calibration tests.
func (b *Blacklist) EventualDetectionRate(category string) (float64, int) {
	var total, detected int
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.RLock()
		for _, e := range s.entries {
			if e.category != category {
				continue
			}
			total++
			if e.detected {
				detected++
			}
		}
		s.mu.RUnlock()
	}
	if total == 0 {
		return 0, 0
	}
	return float64(detected) / float64(total), total
}
