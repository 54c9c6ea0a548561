package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestParseFlags(t *testing.T) {
	ac, err := parseFlags([]string{"-in", "s.jsonl", "-eps", "0.2", "-minpts", "4", "-theta-c", "0", "-metrics", "m.json"})
	if err != nil {
		t.Fatal(err)
	}
	if ac.inFile != "s.jsonl" || ac.params.Cluster.Eps != 0.2 || ac.params.Cluster.MinPts != 4 || ac.params.MinDomains != 0 {
		t.Fatalf("in/eps/minpts/theta-c = %q/%v/%d/%d", ac.inFile, ac.params.Cluster.Eps, ac.params.Cluster.MinPts, ac.params.MinDomains)
	}
	if ac.Metrics != "m.json" {
		t.Fatalf("metrics = %q", ac.Metrics)
	}
	ac, err = parseFlags([]string{"-in", "s.jsonl"})
	if err != nil {
		t.Fatal(err)
	}
	if ac.params.Cluster.Eps != 0.1 || ac.params.Cluster.MinPts != 3 || ac.params.MinDomains != 5 {
		t.Fatalf("defaults eps/minpts/theta-c = %v/%d/%d", ac.params.Cluster.Eps, ac.params.Cluster.MinPts, ac.params.MinDomains)
	}
	if _, err := parseFlags([]string{"-in", "s.jsonl", "-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	// Bad values fail at parse time with a message naming the flag.
	for _, bad := range [][]string{
		{"-in", ""},
		{"-eps", "-0.1"},
		{"-eps", "NaN"},
		{"-eps", "+Inf"},
		{"-minpts", "0"},
		{"-minpts", "-2"},
		{"-theta-c", "-1"},
	} {
		args := bad
		if bad[0] != "-in" {
			args = append([]string{"-in", "s.jsonl"}, bad...)
		}
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%v accepted", bad)
		} else if !strings.Contains(err.Error(), bad[0]) {
			t.Errorf("%v: error %q does not name the flag", bad, err)
		}
	}
}

// A bad clustering flag fails before -in is opened: the session file
// named here does not exist, so a run that got as far as reading it
// would fail with a different error.
func TestRunChecksFlagsBeforeReading(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	err := run([]string{"-in", missing, "-minpts", "0"}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "-minpts") {
		t.Fatalf("err = %v, want a -minpts rejection", err)
	}
}
