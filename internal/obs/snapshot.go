package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// BucketCount is one occupied histogram bucket: Count samples were <=
// Le (and greater than the previous bucket's Le).
type BucketCount struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the exported state of one histogram. Only
// occupied buckets are listed.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Mean returns the average sample (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns the upper bound of the bucket containing the q-th
// sample (0 <= q <= 1) — a log-scale approximation good to a factor of
// two, which is what fixed buckets buy.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	rank := int64(q * float64(h.Count))
	if rank >= h.Count {
		rank = h.Count - 1
	}
	var seen int64
	for _, b := range h.Buckets {
		seen += b.Count
		if seen > rank {
			return b.Le
		}
	}
	return h.Buckets[len(h.Buckets)-1].Le
}

func (h *Histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for b := 0; b < histBuckets; b++ {
		if n := h.buckets[b].Load(); n > 0 {
			out.Buckets = append(out.Buckets, BucketCount{Le: bucketUpper(b), Count: n})
		}
	}
	return out
}

// Snapshot is a point-in-time export of a registry: all metrics by
// canonical key plus the completed-span log.
type Snapshot struct {
	TakenAt    time.Time                    `json:"taken_at"`
	VirtualNow *time.Time                   `json:"virtual_now,omitempty"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      []SpanRecord                 `json:"spans,omitempty"`
}

// Snapshot exports the registry's current state. Returns an empty
// snapshot on a nil Registry.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{TakenAt: time.Now()}
	}
	snap := Snapshot{
		TakenAt:    time.Now(),
		Counters:   r.counterValues(),
		Gauges:     r.gaugeValues(),
		Histograms: r.histValues(),
		Spans:      r.Spans(),
	}
	if v, ok := r.virtualNow(); ok {
		snap.VirtualNow = &v
	}
	return snap
}

// WriteJSON writes an indented JSON snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteFile writes WriteJSON's snapshot to the file at path, creating
// or truncating it. A nil registry or an empty path writes nothing.
func (r *Registry) WriteFile(path string) error {
	if r == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Text renders the snapshot as aligned, sorted plain text.
func (r *Registry) Text() string { return r.Snapshot().Text() }

// Text renders the snapshot as aligned, sorted plain text: spans first
// (completion order, both time domains), then counters, gauges and
// histogram summaries.
func (s Snapshot) Text() string {
	var b strings.Builder
	if len(s.Spans) > 0 {
		b.WriteString("== spans ==\n")
		w := 0
		for _, sp := range s.Spans {
			if len(sp.Name) > w {
				w = len(sp.Name)
			}
		}
		for _, sp := range s.Spans {
			fmt.Fprintf(&b, "%-*s  wall %-12s", w, sp.Name, sp.Wall().Round(time.Microsecond))
			if sp.VirtualStart != nil {
				fmt.Fprintf(&b, "  virtual %s", sp.Virtual())
			}
			b.WriteByte('\n')
		}
	}
	writeKV := func(title string, m map[string]int64) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(&b, "== %s ==\n", title)
		keys := sortedKeys(m)
		w := 0
		for _, k := range keys {
			if len(k) > w {
				w = len(k)
			}
		}
		for _, k := range keys {
			fmt.Fprintf(&b, "%-*s  %d\n", w, k, m[k])
		}
	}
	writeKV("counters", s.Counters)
	writeKV("gauges", s.Gauges)
	if len(s.Histograms) > 0 {
		b.WriteString("== histograms ==\n")
		keys := sortedKeys(s.Histograms)
		w := 0
		for _, k := range keys {
			if len(k) > w {
				w = len(k)
			}
		}
		for _, k := range keys {
			h := s.Histograms[k]
			fmt.Fprintf(&b, "%-*s  count %-8d mean %-10.1f p50<=%-8d p99<=%d\n",
				w, k, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
		}
	}
	return b.String()
}

// CounterValue returns one counter's value by name and labels (0 when
// absent or on a nil Registry). Snapshot-oriented helper for tests and
// report code; hot paths should hold the *Counter instead.
func (r *Registry) CounterValue(name string, labels ...string) int64 {
	if r == nil {
		return 0
	}
	key := Key(name, labels...)
	s := r.shardOf(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.counters[key].Value()
}

// SumCounters returns the sum of every counter whose key starts with
// prefix — e.g. SumCounters("crawler_sessions_total") adds up all
// per-worker label variants.
func (r *Registry) SumCounters(prefix string) int64 {
	if r == nil {
		return 0
	}
	var total int64
	for k, v := range r.counterValues() {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}

// sortedSpanNames is a test helper surface: distinct span names, sorted.
func (s Snapshot) SpanNames() []string {
	seen := map[string]bool{}
	for _, sp := range s.Spans {
		seen[sp.Name] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
