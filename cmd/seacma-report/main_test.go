package main

import (
	"bytes"
	"strings"
	"testing"
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
	if rc.seed != 9 || rc.exp.World.Seed != 9 {
		t.Fatalf("seed = %d/%d", rc.seed, rc.exp.World.Seed)
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
