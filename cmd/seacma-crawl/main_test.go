package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseFlags(t *testing.T) {
	cc, err := parseFlags([]string{"-tiny", "-seed", "7", "-max", "40", "-json", "-metrics", "m.json"})
	if err != nil {
		t.Fatal(err)
	}
	if !cc.exp.SkipMilking {
		t.Fatal("crawl config must skip milking")
	}
	if cc.exp.World.Seed != 7 {
		t.Fatalf("seed = %d", cc.exp.World.Seed)
	}
	if cc.exp.MaxPublishers != 40 {
		t.Fatalf("max = %d", cc.exp.MaxPublishers)
	}
	if !cc.asJSON {
		t.Fatal("json flag not mapped")
	}
	if cc.metrics != "m.json" || cc.exp.Obs == nil {
		t.Fatal("metrics flag must allocate a registry")
	}
	// Without -metrics the run stays uninstrumented.
	cc2, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cc2.exp.Obs != nil {
		t.Fatal("registry allocated without -metrics")
	}
	if cc2.exp.World.Seed != 1 {
		t.Fatalf("default seed = %d", cc2.exp.World.Seed)
	}
	if _, err := parseFlags([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	// Out-of-range values fail at parse time with a message instead of
	// crawling every publisher or being dropped silently.
	for _, bad := range [][]string{
		{"-max", "-1"},
		{"-scale", "-2"},
		{"-scale", "0"},
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
		{"-publishers", "-3"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("%v accepted", bad)
		} else if !strings.Contains(err.Error(), bad[0]) {
			t.Errorf("%v: error %q does not name the flag", bad, err)
		}
	}
}

func TestPublisherOverride(t *testing.T) {
	cc, err := parseFlags([]string{"-publishers", "120"})
	if err != nil {
		t.Fatal(err)
	}
	if cc.exp.World.SeedPublishers != 120 || cc.exp.World.NewNetPublishers != 12 {
		t.Fatalf("publisher override: %d/%d", cc.exp.World.SeedPublishers, cc.exp.World.NewNetPublishers)
	}
}

// Smoke: a tiny end-to-end crawl emits the campaign JSON and a metrics
// snapshot with the discovery-half spans and non-zero crawler counters.
func TestRunTinySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny pipeline run")
	}
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-tiny", "-max", "60", "-json", "-metrics", metrics}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	var campaigns []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &campaigns); err != nil {
		t.Fatalf("campaign JSON: %v\n%s", err, stdout.String())
	}
	if len(campaigns) == 0 {
		t.Fatal("no campaigns discovered")
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Spans    []struct {
			Name   string `json:"name"`
			WallNS int64  `json:"wall_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	stages := map[string]bool{}
	for _, sp := range snap.Spans {
		stages[sp.Name] = true
	}
	for _, want := range []string{"reverse", "crawl", "discover", "attribute"} {
		if !stages[want] {
			t.Errorf("missing %q span; have %v", want, stages)
		}
	}
	var crawlerTotal int64
	for k, v := range snap.Counters {
		if len(k) >= 8 && k[:8] == "crawler_" {
			crawlerTotal += v
		}
	}
	if crawlerTotal == 0 {
		t.Fatalf("no crawler counters in snapshot: %v", snap.Counters)
	}
}

// goldenOutDigest is the SHA-256 of the tiny world's -out session file
// (seed 1, every publisher). The file carries every session's full
// instrumentation log, so a crawl that drops or truncates a log before
// it reaches the writer changes this digest. The crawl is worker-count
// invariant, so one digest covers every width.
const goldenOutDigest = "f7ed0d28214154f4e88b7de0942689f38d426556d2e808d06613547c454f33a2"

func TestOutFilePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny pipeline runs")
	}
	for _, workers := range []string{"1", "2"} {
		t.Run("W"+workers, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "sessions.jsonl")
			var stdout, stderr bytes.Buffer
			if err := run(context.Background(), []string{"-tiny", "-workers", workers, "-out", out}, &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != goldenOutDigest {
				t.Fatalf("-out digest %s (%d bytes), want %s", got, len(raw), goldenOutDigest)
			}
		})
	}
}

// A run that fails leaves no -out file behind: neither an empty file
// (the crawl never reached the sink) nor a header and a prefix of the
// sessions (it failed part way), either of which would pass for crawl
// output.
func TestRunFailureLeavesNoOutFile(t *testing.T) {
	for _, tc := range []struct {
		name  string
		short bool // cheap enough for -short
		// cancel returns the run's context; it may cancel it once the
		// out file at path has data.
		cancel func(path string) (context.Context, func())
	}{
		{"cancelled before the crawl", true, func(string) (context.Context, func()) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel
		}},
		{"cancelled mid-crawl", false, func(path string) (context.Context, func()) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				for ctx.Err() == nil {
					if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
						cancel()
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()
			return ctx, cancel
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && !tc.short {
				t.Skip("tiny pipeline run")
			}
			out := filepath.Join(t.TempDir(), "sessions.jsonl")
			ctx, cancel := tc.cancel(out)
			defer cancel()
			var stdout, stderr bytes.Buffer
			if err := run(ctx, []string{"-tiny", "-out", out}, &stdout, &stderr); err == nil {
				t.Fatal("cancelled run succeeded")
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("failed run left %s behind (stat: %v)", out, err)
			}
		})
	}
}
