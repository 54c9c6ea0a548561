package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/crawler"
	"repro/internal/phash"
	"repro/internal/urlx"
	"repro/internal/websearch"
)

// White-box tests for the attribution internals.

func TestFirstPathSegment(t *testing.T) {
	cases := map[string]string{
		"/eroa/v3/serve.js": "eroa",
		"/":                 "",
		"/solo":             "solo",
		"/a/b/c":            "a",
	}
	for in, want := range cases {
		if got := firstPathSegment(in); got != want {
			t.Errorf("firstPathSegment(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLooksGeneric(t *testing.T) {
	for _, tok := range []string{"", "track", "dl", "signup", "index.html", "averyverylongtoken"} {
		if !looksGeneric(tok) {
			t.Errorf("%q should be generic", tok)
		}
	}
	for _, tok := range []string{"eroa", "ylx", "adctr", "pcash"} {
		if looksGeneric(tok) {
			t.Errorf("%q should not be generic", tok)
		}
	}
}

func TestSnippetVarsIn(t *testing.T) {
	src := `
		let _eroZoneCfg = { z: 5, s: "abc" };
		let _tmp = dec("00ff", 3);
		let plain = 5;
		let another = {x: 1};
		let 1bad = {};
	`
	got := snippetVarsIn(src)
	want := map[string]bool{"_eroZoneCfg": true, "another": true}
	if len(got) != len(want) {
		t.Fatalf("vars = %v", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("unexpected var %q in %v", v, got)
		}
	}
}

func TestValidIdent(t *testing.T) {
	for _, ok := range []string{"_a", "$x", "abc9", "A_b"} {
		if !validIdent(ok) {
			t.Errorf("%q should be valid", ok)
		}
	}
	for _, bad := range []string{"", "9a", "a-b", "a b", "a."} {
		if validIdent(bad) {
			t.Errorf("%q should be invalid", bad)
		}
	}
}

func TestCommonSnippetVar(t *testing.T) {
	e := websearch.NewEngine()
	e.Index("p1.com", `let _newNet = {z:1}; let _rhblk_q = {z:2};`, 0)
	e.Index("p2.com", `let _newNet = {z:9};`, 0)
	e.Index("p3.com", `nothing here`, 0)
	known := map[string]bool{"_rhblk_q": true}
	if got := commonSnippetVar(e, []string{"p1.com", "p2.com"}, known); got != "_newNet" {
		t.Fatalf("commonSnippetVar = %q", got)
	}
	// Majority requirement: 1 of 3 publishers is not enough.
	if got := commonSnippetVar(e, []string{"p1.com", "p3.com", "p3.com"}, known); got != "" {
		t.Fatalf("minority var accepted: %q", got)
	}
	if got := commonSnippetVar(e, nil, known); got != "" {
		t.Fatalf("empty publishers yielded %q", got)
	}
}

func TestAggregateAttributionOrdering(t *testing.T) {
	attrs := []Attribution{
		{Ref: LandingRef{0, 0}, Network: "A"},
		{Ref: LandingRef{0, 1}, Network: "A"},
		{Ref: LandingRef{0, 2}, Network: "B"},
	}
	rows := AggregateAttribution(attrs, func(ref LandingRef) bool { return ref.Landing == 0 })
	if len(rows) != 2 || rows[0].Network != "A" || rows[0].LandingPages != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].SEAttackPages != 1 || rows[0].SERate != 50 {
		t.Fatalf("SE accounting wrong: %+v", rows[0])
	}
}

func TestPatternSetFromSeeds(t *testing.T) {
	seeds := []SeedNetwork{
		{Name: "N1", Patterns: []urlx.Pattern{{Kind: urlx.KindURL, PathPrefix: "/n1/"}}},
		{Name: "N2", Patterns: []urlx.Pattern{{Kind: urlx.KindSource, BodyToken: "xyz"}}},
	}
	ps := PatternSetFromSeeds(seeds)
	if got := ps.MatchURL(urlx.MustParse("http://h.com/n1/x")); got != "N1" {
		t.Fatalf("MatchURL = %q", got)
	}
	if got := ps.MatchSource("aaa xyz bbb"); got != "N2" {
		t.Fatalf("MatchSource = %q", got)
	}
}

func TestCategoryDisplayNamesComplete(t *testing.T) {
	for _, c := range append(AllSECategories, CatBenign, CatUnknownSE, Category("custom")) {
		if c.DisplayName() == "" {
			t.Fatalf("category %q has empty display name", c)
		}
	}
}

func TestErrorf(t *testing.T) {
	err := Errorf("stage %d failed", 3)
	if err.Error() != "seacma: stage 3 failed" {
		t.Fatalf("err = %v", err)
	}
}

func TestMilkerConfigDefaults(t *testing.T) {
	cfg := MilkerConfig{}
	cfg.fillDefaults()
	paper := PaperMilkerConfig()
	if cfg.MilkInterval != paper.MilkInterval || cfg.GSBInterval != paper.GSBInterval ||
		cfg.Duration != paper.Duration || cfg.VerifyBits != paper.VerifyBits {
		t.Fatalf("defaults = %+v", cfg)
	}
	// Partial overrides survive.
	cfg2 := MilkerConfig{VerifyBits: 5}
	cfg2.fillDefaults()
	if cfg2.VerifyBits != 5 || cfg2.MilkInterval != paper.MilkInterval {
		t.Fatalf("partial defaults = %+v", cfg2)
	}
}

func TestFormatTableAlignment(t *testing.T) {
	out := FormatTable([]string{"col", "x"}, [][]string{{"aaaa", "1"}, {"b", "22"}})
	lines := splitLines(out)
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	// All rows equal width.
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("header/divider misaligned: %q vs %q", lines[0], lines[1])
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// Discover and RunStream reject unusable DBSCAN parameters even though
// the incremental store would cluster with them: a negative eps used to
// cluster anyway and a NaN one made everything noise, both silently.
// RunStream must reject them before reversing seeds or crawling (the
// pipeline here has no search engine or web to crawl).
func TestDiscoverRejectsBadParams(t *testing.T) {
	_, err := Discover(nil, DiscoveryParams{Cluster: cluster.Params{Eps: -1, MinPts: 0}, MinDomains: 5})
	if err == nil {
		t.Fatal("bad params accepted")
	}
	var landings []crawler.Landing
	for _, d := range []string{"a.com", "b.com", "c.com", "d.com"} {
		landings = append(landings, crawler.Landing{Hash: phash.Hash{}, Hashed: true, E2LD: d})
	}
	sessions := []*crawler.Session{{Landings: landings}}
	for _, eps := range []float64{-1, math.NaN(), math.Inf(1)} {
		params := DiscoveryParams{Cluster: cluster.Params{Eps: eps, MinPts: 3}, MinDomains: 3}
		if res, err := Discover(sessions, params); err == nil {
			t.Errorf("Discover eps=%v: no error, %d clusters", eps, len(res.Clusters))
		}
		p := &Pipeline{Cfg: PipelineConfig{Discovery: params}}
		if _, err := p.RunStream(context.Background(), StreamOptions{}); err == nil || !strings.Contains(err.Error(), "eps") {
			t.Errorf("RunStream eps=%v: error %v, want an eps rejection", eps, err)
		}
	}
}

func TestDiscoverEmptySessions(t *testing.T) {
	res, err := Discover(nil, PaperDiscoveryParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 0 || len(res.Observations) != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestCollectObservationsSkipsUnhashed(t *testing.T) {
	sessions := []*crawler.Session{
		nil,
		{Landings: []crawler.Landing{
			{E2LD: "a.com", Hashed: false},
			{E2LD: "b.com", Hashed: true, Hash: phash.Hash{Hi: 1}},
			{E2LD: "b.com", Hashed: true, Hash: phash.Hash{Hi: 1}}, // duplicate pair
		}},
	}
	obs := CollectObservations(sessions)
	if len(obs) != 1 {
		t.Fatalf("observations = %d", len(obs))
	}
	if len(obs[0].Refs) != 2 {
		t.Fatalf("refs = %d", len(obs[0].Refs))
	}
}

func TestTable4Empty(t *testing.T) {
	rows := Table4(&MilkingResult{})
	if len(rows) != 1 || rows[0].Category != "total" || rows[0].Domains != 0 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestAttributeSessionsSkipsNilAndEmpty(t *testing.T) {
	attrs := AttributeSessions([]*crawler.Session{nil, {}}, urlx.NewPatternSet())
	if len(attrs) != 0 {
		t.Fatalf("attrs = %d", len(attrs))
	}
}
