package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseFlags(t *testing.T) {
	mc, err := parseFlags([]string{"-tiny", "-seed", "3", "-days", "2", "-interval", "30", "-sources", "50", "-metrics", "m.json"})
	if err != nil {
		t.Fatal(err)
	}
	if mc.exp.World.Seed != 3 {
		t.Fatalf("seed = %d", mc.exp.World.Seed)
	}
	if mc.exp.Milker.Duration != 48*time.Hour {
		t.Fatalf("duration = %v", mc.exp.Milker.Duration)
	}
	if mc.exp.Milker.MilkInterval != 30*time.Minute {
		t.Fatalf("interval = %v", mc.exp.Milker.MilkInterval)
	}
	if mc.exp.Milker.MaxSources != 50 {
		t.Fatalf("sources = %d", mc.exp.Milker.MaxSources)
	}
	if mc.exp.SkipMilking {
		t.Fatal("milk config must not skip milking")
	}
	if mc.exp.Obs == nil {
		t.Fatal("metrics flag must allocate a registry")
	}
	mc2, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if mc2.exp.Obs != nil {
		t.Fatal("registry allocated without -metrics")
	}
	if mc2.Spec.Days != 14 {
		t.Fatalf("default days = %d", mc2.Spec.Days)
	}
	for _, args := range [][]string{
		{"-days", "-1"}, {"-days", "0"},
		{"-interval", "-5"}, {"-interval", "0"},
		{"-sources", "-3"},
		{"-days", "61"},
		{"-seed", "-1"},
		{"-workers", "-1"},
		{"-workers", "65"},
	} {
		if _, err := parseFlags(args); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: err = %v, want a rejection naming %s", args, err, args[0])
		}
	}
}

// Smoke for the acceptance criterion: a tiny full-pipeline run with
// -metrics emits a JSON snapshot containing per-stage spans in both
// time domains and non-zero crawler and milker counters.
func TestRunTinyEmitsFullMetricsSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny pipeline run")
	}
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-tiny", "-days", "2", "-sources", "40", "-metrics", metrics}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "milking:") {
		t.Fatalf("missing milking summary:\n%s", stdout.String())
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Spans    []struct {
			Name      string `json:"name"`
			WallNS    int64  `json:"wall_ns"`
			VirtualNS int64  `json:"virtual_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}

	spans := map[string]struct{ wall, virt int64 }{}
	for _, sp := range snap.Spans {
		spans[sp.Name] = struct{ wall, virt int64 }{sp.WallNS, sp.VirtualNS}
	}
	for _, want := range []string{"reverse", "crawl", "discover", "attribute", "verify", "milk"} {
		if _, ok := spans[want]; !ok {
			t.Errorf("missing %q span; have %v", want, spans)
		}
	}
	// The milking stage ran 2 virtual days in well under that wall time.
	milk := spans["milk"]
	if milk.virt < int64(48*time.Hour) {
		t.Errorf("milk virtual duration = %v, want >= 48h", time.Duration(milk.virt))
	}
	if milk.wall <= 0 || milk.wall >= int64(48*time.Hour) {
		t.Errorf("milk wall duration = %v", time.Duration(milk.wall))
	}

	sum := func(prefix string) int64 {
		var total int64
		for k, v := range snap.Counters {
			if strings.HasPrefix(k, prefix) {
				total += v
			}
		}
		return total
	}
	if sum("crawler_sessions_total") == 0 {
		t.Error("no crawler session counters")
	}
	if sum("milker_milks_total") == 0 {
		t.Error("no milk request counter")
	}
	if sum("milker_milks_hourly") == 0 {
		t.Error("no per-virtual-hour milk series")
	}
	if sum("milker_gsb_polls_total") == 0 {
		t.Error("no GSB poll counter")
	}
	if sum("webtx_requests_total") == 0 {
		t.Error("no webtx request counters")
	}
}
