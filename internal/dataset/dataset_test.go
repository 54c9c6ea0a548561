package dataset

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/imaging"
	"repro/internal/worldgen"
)

var (
	runOnce sync.Once
	runSess []*crawler.Session
	runDisc *core.DiscoveryResult
	runMilk *core.MilkingResult
	runErr  error
)

func fixture(t *testing.T) ([]*crawler.Session, *core.DiscoveryResult, *core.MilkingResult) {
	t.Helper()
	runOnce.Do(func() {
		w := worldgen.Build(worldgen.TinyConfig())
		var seeds []core.SeedNetwork
		for _, n := range w.Networks {
			if n.Spec.Seed {
				seeds = append(seeds, core.SeedNetwork{
					Name: n.Name(), Patterns: n.Patterns(), SearchSnippet: n.SearchSnippet(),
					ResidentialRequired: n.Spec.ResidentialOnly,
				})
			}
		}
		p := core.NewPipeline(core.PipelineConfig{
			Seeds: seeds,
			Milker: core.MilkerConfig{
				Duration: 24 * time.Hour, GSBExtra: 24 * time.Hour, MaxSources: 20,
			},
		}, w.Internet, w.Clock, w.Search, w.GSB, w.VT, w.Webcat)
		_, byHost := p.Reverse()
		runSess = p.Crawl(byHost)
		runDisc, runErr = p.Discover(runSess)
		if runErr != nil {
			return
		}
		_, runMilk, runErr = p.Milk(runSess, runDisc)
	})
	if runErr != nil {
		t.Fatalf("fixture: %v", runErr)
	}
	return runSess, runDisc, runMilk
}

func TestExportWritesEverything(t *testing.T) {
	sessions, disc, milk := fixture(t)
	dir := t.TempDir()
	shots := 0
	sum, err := Export(dir, sessions, logsOf(sessions), disc, milk, Options{
		MaxSessions: 10,
		Screenshots: func(campaignID int) (*imaging.Image, bool) {
			shots++
			return imaging.New(32, 24), true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Campaigns == 0 || sum.SessionLogs == 0 || sum.Domains == 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Screenshots != shots || shots != sum.Campaigns {
		t.Fatalf("screenshots = %d, campaigns = %d", sum.Screenshots, sum.Campaigns)
	}

	// campaigns.json parses and matches the discovery.
	var campaigns []map[string]any
	readJSON(t, filepath.Join(dir, "campaigns.json"), &campaigns)
	if len(campaigns) != len(disc.Campaigns()) {
		t.Fatalf("campaigns.json has %d entries", len(campaigns))
	}
	for _, c := range campaigns {
		if c["category"] == "" || c["rep_dhash"] == "" {
			t.Fatalf("incomplete campaign record %v", c)
		}
	}

	// Each log file is valid JSONL with known event kinds.
	logs, err := filepath.Glob(filepath.Join(dir, "logs", "session-*.jsonl"))
	if err != nil || len(logs) != sum.SessionLogs {
		t.Fatalf("log files = %d, want %d (%v)", len(logs), sum.SessionLogs, err)
	}
	checkJSONL(t, logs[0], func(m map[string]any) {
		if m["kind"] == "" {
			t.Fatal("event without kind")
		}
	})

	// Milked inventories.
	checkJSONL(t, filepath.Join(dir, "milked_domains.jsonl"), func(m map[string]any) {
		if m["host"] == "" || m["category"] == "" {
			t.Fatalf("bad domain record %v", m)
		}
	})
	checkJSONL(t, filepath.Join(dir, "milked_files.jsonl"), func(m map[string]any) {
		if m["sha256"] == "" {
			t.Fatalf("bad file record %v", m)
		}
	})

	// Screenshot PNGs exist.
	pngs, _ := filepath.Glob(filepath.Join(dir, "screenshots", "*.png"))
	if len(pngs) != sum.Screenshots {
		t.Fatalf("pngs = %d", len(pngs))
	}
	data, err := os.ReadFile(pngs[0])
	if err != nil || !strings.HasPrefix(string(data), "\x89PNG") {
		t.Fatal("not a PNG")
	}
}

func TestExportWithoutMilkingOrScreenshots(t *testing.T) {
	sessions, disc, _ := fixture(t)
	dir := t.TempDir()
	sum, err := Export(dir, sessions, logsOf(sessions), disc, nil, Options{MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Domains != 0 || sum.Files != 0 || sum.Screenshots != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.SessionLogs != 2 {
		t.Fatalf("session logs = %d, want bounded 2", sum.SessionLogs)
	}
	if _, err := os.Stat(filepath.Join(dir, "milked_domains.jsonl")); !os.IsNotExist(err) {
		t.Fatal("milking files written without milking")
	}
}

func TestExportBadDir(t *testing.T) {
	sessions, disc, milk := fixture(t)
	if _, err := Export("/proc/definitely/not/writable", sessions, logsOf(sessions), disc, milk, Options{}); err == nil {
		t.Fatal("export into unwritable dir succeeded")
	}
}

// An SE session without a log is an error, not an empty log file.
func TestExportMissingLog(t *testing.T) {
	sessions, disc, _ := fixture(t)
	if _, err := Export(t.TempDir(), sessions, nil, disc, nil, Options{}); err == nil {
		t.Fatal("export without session logs succeeded")
	}
}

// logsOf keys every session's log by its index, as a streamed crawl's
// session sink would.
func logsOf(sessions []*crawler.Session) map[int][]browser.Event {
	logs := make(map[int][]browser.Event, len(sessions))
	for si, s := range sessions {
		logs[si] = s.Events
	}
	return logs
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
}

func checkJSONL(t *testing.T, path string, check func(map[string]any)) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lines := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("%s line %d: %v", path, lines+1, err)
		}
		check(m)
		lines++
	}
	if lines == 0 {
		t.Fatalf("%s is empty", path)
	}
}
