package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/crawler"
	"repro/internal/sessionio"
	"repro/internal/worldgen"
)

// tinyPipeline builds a pipeline over a fresh tiny world with the
// given crawl width.
func tinyPipeline(workers int) *Pipeline {
	w := worldgen.Build(worldgen.TinyConfig())
	var seeds []SeedNetwork
	for _, n := range w.Networks {
		if n.Spec.Seed {
			seeds = append(seeds, SeedNetwork{
				Name: n.Name(), Patterns: n.Patterns(), SearchSnippet: n.SearchSnippet(),
				ResidentialRequired: n.Spec.ResidentialOnly,
			})
		}
	}
	return NewPipeline(PipelineConfig{Seeds: seeds, Crawler: crawler.Config{Workers: workers}},
		w.Internet, w.Clock, w.Search, w.GSB, w.VT, w.Webcat)
}

// copySink collects what the session sink sees: shallow copies, so
// each copy keeps the log the commit then drops from the original.
type copySink struct {
	idx      []int
	totals   []int
	sessions []*crawler.Session
}

func (c *copySink) session(idx, total int, s *crawler.Session) {
	cp := *s
	c.idx = append(c.idx, idx)
	c.totals = append(c.totals, total)
	c.sessions = append(c.sessions, &cp)
}

func encodeSessions(t *testing.T, sessions []*crawler.Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sessionio.Write(&buf, sessions); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The stream keeps no instrumentation log past commit, and the session
// sink sees exactly what a stage-by-stage crawl returns: the same
// sessions, logs included, in task order, at any crawl width.
func TestStreamDropsLogsAndSinkSeesCrawlAll(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny world crawls")
	}
	for _, workers := range []int{1, 2} {
		p := tinyPipeline(workers)
		var sink copySink
		res, err := p.RunStream(context.Background(), StreamOptions{SkipMilking: true, OnSession: sink.session})
		if err != nil {
			t.Fatal(err)
		}
		events := 0
		for si, s := range res.Sessions {
			if s.Events != nil {
				t.Fatalf("W%d: session %d kept %d events past commit", workers, si, len(s.Events))
			}
			events += len(sink.sessions[si].Events)
		}
		if events == 0 {
			t.Fatalf("W%d: the sink saw no events", workers)
		}
		for i, idx := range sink.idx {
			if idx != i {
				t.Fatalf("W%d: sink call %d got session %d, want task order", workers, i, idx)
			}
			if sink.totals[i] != len(res.Sessions) {
				t.Fatalf("W%d: sink call %d got total %d, want %d", workers, i, sink.totals[i], len(res.Sessions))
			}
		}

		ref := tinyPipeline(workers)
		_, byHost := ref.Reverse()
		want := ref.Crawl(byHost)
		if len(sink.sessions) != len(want) {
			t.Fatalf("W%d: sink saw %d sessions, CrawlAll returned %d", workers, len(sink.sessions), len(want))
		}
		if !bytes.Equal(encodeSessions(t, sink.sessions), encodeSessions(t, want)) {
			t.Fatalf("W%d: sink sessions differ from CrawlAll's", workers)
		}
	}
}

// Milking sources extracted from the stream's per-landing candidate
// table equal those extracted by rebuilding every graph from the logs.
func TestStreamCandidateTableMatchesGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny world crawl")
	}
	p := tinyPipeline(2)
	var sink copySink
	sc := p.newStreamCoordinator(func(ProgressEvent) {}, sink.session)
	_, byHost := p.Reverse()
	if err := sc.consume(context.Background(), byHost); err != nil {
		t.Fatal(err)
	}
	disc, err := sc.finishDiscovery()
	if err != nil {
		t.Fatal(err)
	}
	fromTable := extractMilkingSources(sc.sessions, disc, sc.upstreamOf)
	fromGraphs := ExtractMilkingSources(sink.sessions, disc)
	if len(fromTable) == 0 {
		t.Fatal("no milking candidates extracted")
	}
	if !reflect.DeepEqual(fromTable, fromGraphs) {
		t.Fatalf("candidate table gave %d sources, graphs %d; they differ", len(fromTable), len(fromGraphs))
	}
}
