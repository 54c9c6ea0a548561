package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func TestParseFlags(t *testing.T) {
	// Tables 1-3 need no milking; table 4 and the full report do.
	for _, c := range []struct {
		table string
		skip  bool
	}{{"1", true}, {"2", true}, {"3", true}, {"4", false}, {"0", false}} {
		rc, err := parseFlags([]string{"-tiny", "-table", c.table})
		if err != nil {
			t.Fatal(err)
		}
		if rc.exp.SkipMilking != c.skip {
			t.Errorf("table %s: SkipMilking = %v, want %v", c.table, rc.exp.SkipMilking, c.skip)
		}
	}
	rc, err := parseFlags([]string{"-seed", "9", "-json", "rep.json", "-metrics", "m.json"})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Spec.Seed != 9 || rc.exp.World.Seed != 9 {
		t.Fatalf("seed = %d/%d", rc.Spec.Seed, rc.exp.World.Seed)
	}
	if rc.jsonFile != "rep.json" {
		t.Fatalf("jsonFile = %q", rc.jsonFile)
	}
	if rc.exp.Obs == nil {
		t.Fatal("metrics flag must allocate a registry")
	}
	if rc2, _ := parseFlags(nil); rc2.exp.Obs != nil {
		t.Fatal("registry allocated without -metrics")
	}
	for _, table := range []string{"-1", "5", "9"} {
		if _, err := parseFlags([]string{"-tiny", "-table", table}); err == nil || !strings.Contains(err.Error(), "-table") {
			t.Errorf("table %s: err = %v, want a rejection", table, err)
		}
	}
	for _, bad := range [][]string{{"-seed", "-1"}, {"-workers", "-1"}, {"-workers", "65"}} {
		if _, err := parseFlags(bad); err == nil || !strings.Contains(err.Error(), bad[0]) {
			t.Errorf("%v: err = %v, want a rejection naming %s", bad, err, bad[0])
		}
	}
}

// Smoke: the discovery-only report renders Table 1 on a tiny world.
func TestRunTinyTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny pipeline run")
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-tiny", "-table", "1"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "Table 1: SE ad campaign statistics") {
		t.Fatalf("missing Table 1 header:\n%s", out)
	}
	if strings.Contains(out, "Table 4") {
		t.Fatalf("table filter leaked Table 4:\n%s", out)
	}
}

// The CLI and the seacma-serve daemon map one spec onto one experiment:
// `seacma-report -tiny -seed S -json F` writes exactly the report of
// seacma.Spec{Tiny: true, Seed: S}.Config(), which is what a job with
// that spec serves. Seed 0 is in the table because it is the value the
// two once mapped to different worlds.
func TestJSONMatchesSpecConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny pipeline runs")
	}
	for _, seed := range []int64{0, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "report.json")
			var stdout, stderr bytes.Buffer
			if err := run([]string{"-tiny", "-seed", fmt.Sprint(seed), "-json", out}, &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			res, err := seacma.NewExperiment(seacma.Spec{Tiny: true, Seed: seed}.Config()).Run()
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := res.Report().WriteJSON(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("-json report (%d bytes) differs from the spec's report (%d bytes)", len(got), want.Len())
			}
		})
	}
}
