package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"repro/internal/phash"
)

var testLive = []phash.Hash{{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}, {Hi: 1, Lo: 2}}

func TestPlanIngestSeeded(t *testing.T) {
	a := planIngest(7, testLive, 300, ingestBatchSize)
	b := planIngest(7, testLive, 300, ingestBatchSize)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different event streams")
	}
	if samePlan(a, planIngest(8, testLive, 300, ingestBatchSize)) {
		t.Fatal("different seeds gave the same event stream")
	}
	shares := kindShares(a)
	for kind, want := range map[string]float64{kindNear: 0.5, kindRandom: 0.3, kindRepeat: 0.2} {
		if got := shares[kind]; got < want-0.05 || got > want+0.05 {
			t.Errorf("%s share %.3f, want about %.2f", kind, got, want)
		}
	}
	for b, batch := range a {
		for i, ev := range batch {
			switch ev.Kind {
			case kindRepeat:
				if ev.Of >= b*ingestBatchSize {
					t.Fatalf("batch %d event %d repeats event %d of the same or a later batch", b, i, ev.Of)
				}
				src := a[ev.Of/ingestBatchSize][ev.Of%ingestBatchSize]
				if src.Kind == kindRepeat || src.Hash != ev.Hash || src.E2LD != ev.E2LD || !src.Tick.Equal(ev.Tick) {
					t.Fatalf("batch %d event %d is not an exact repeat of event %d", b, i, ev.Of)
				}
			case kindNear:
				nearest := phash.Bits
				for _, h := range testLive {
					if d := phash.Distance(h, ev.Hash); d < nearest {
						nearest = d
					}
				}
				if nearest < 1 || nearest > 8 {
					t.Fatalf("near-duplicate %d bits from the live hashes, want 1-8", nearest)
				}
			}
		}
	}
}

func TestJobSpecsSeeded(t *testing.T) {
	for _, w := range workloads {
		a := jobSpecs(w, 3, 2)
		if !reflect.DeepEqual(a, jobSpecs(w, 3, 2)) {
			t.Fatalf("%s: same seed gave different job specs", w)
		}
		if a[0].Seed == jobSpecs(w, 4, 2)[0].Seed {
			t.Fatalf("%s: seeds 3 and 4 gave the same world seed", w)
		}
		worlds := map[int64]bool{}
		for _, spec := range a {
			if spec.Workers != 2 || spec.Seed < 1 {
				t.Fatalf("%s: bad spec %+v", w, spec)
			}
			// Crawl and milking output depend on their worker counts, so
			// every job runs them at one worker.
			cfg := jobConfig(spec)
			if cfg.Crawler.Workers != 1 || cfg.Milker.Workers != 1 || cfg.Discovery.Workers != 2 {
				t.Fatalf("%s: workers crawl %d, milker %d, discovery %d; want 1, 1, 2",
					w, cfg.Crawler.Workers, cfg.Milker.Workers, cfg.Discovery.Workers)
			}
			worlds[spec.Seed] = true
		}
		if len(worlds) != len(a) {
			t.Fatalf("%s: a run's worlds repeat: %+v", w, a)
		}
	}
	if n := len(jobSpecs(wMilk, 3, 2)); n != milkWorlds {
		t.Fatalf("milk run cycles through %d worlds, want %d", n, milkWorlds)
	}
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{10000, 99.9, true},
		{1000, 99, true},
		{999, 98, true},
		{200, 95, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
	}
	for _, c := range cases {
		var s samples
		for i := 1; i <= c.n; i++ {
			s = append(s, float64(i))
		}
		got, ok := s.tailOf()
		if ok != c.ok || got.P != c.wantP || got.N != c.n {
			t.Errorf("n=%d: got p%g ok=%v n=%d, want p%g ok=%v", c.n, got.P, ok, got.N, c.wantP, c.ok)
			continue
		}
		if ok {
			beyond := 0
			for _, v := range s {
				if v > got.Value {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, got.P)
			}
		}
	}
	var s samples = make([]float64, 999)
	if _, err := s.p99(); err == nil {
		t.Error("p99 accepted 999 samples")
	}
}

func TestCheckReportRejectsFlippedByte(t *testing.T) {
	rep := []byte(`{"table1":[{"category":"scareware","campaigns":3}]}`)
	ref := digest(rep)
	if err := checkReport(rep, ref); err != nil {
		t.Fatalf("reference report rejected: %v", err)
	}
	for i := range rep {
		bad := append([]byte(nil), rep...)
		bad[i] ^= 0x01
		if checkReport(bad, ref) == nil {
			t.Fatalf("report with byte %d flipped accepted", i)
		}
	}
}

// replyFor builds the correct replies to a plan, as the store would.
func replyFor(plan [][]ingestEvent) [][]appendOutcome {
	seq := uint64(100)
	seqOf := map[int]uint64{}
	out := make([][]appendOutcome, len(plan))
	for b, batch := range plan {
		for i, ev := range batch {
			if ev.Kind == kindRepeat {
				out[b] = append(out[b], appendOutcome{Seq: seqOf[ev.Of], Duplicate: true})
				continue
			}
			seq++
			seqOf[b*ingestBatchSize+i] = seq
			out[b] = append(out[b], appendOutcome{Seq: seq})
		}
	}
	return out
}

func TestSeqChecker(t *testing.T) {
	plan := planIngest(5, testLive, 50, ingestBatchSize)
	replies := replyFor(plan)
	k := newSeqChecker(ingestBatchSize)
	for b := range plan {
		if err := k.check(b, plan[b], replies[b]); err != nil {
			t.Fatalf("correct reply rejected: %v", err)
		}
	}

	short := newSeqChecker(ingestBatchSize)
	if err := short.check(0, plan[0], replies[0][:len(replies[0])-1]); err == nil {
		t.Fatal("batch reply one result short accepted")
	}

	// A repeat reported as new, and a new event reported as a
	// duplicate, must both be rejected.
	for b := range plan {
		for i, ev := range plan[b] {
			bad := append([]appendOutcome(nil), replies[b]...)
			bad[i].Duplicate = !bad[i].Duplicate
			k := newSeqChecker(ingestBatchSize)
			var err error
			for p := 0; p < b && err == nil; p++ {
				err = k.check(p, plan[p], replies[p])
			}
			if err != nil {
				t.Fatal(err)
			}
			if k.check(b, plan[b], bad) == nil {
				t.Fatalf("batch %d event %d (%s) with its duplicate flag flipped accepted", b, i, ev.Kind)
			}
		}
		if b > 6 {
			break
		}
	}

	// A new event whose seq does not increase is rejected.
	k = newSeqChecker(ingestBatchSize)
	if err := k.check(0, plan[0], replies[0]); err != nil {
		t.Fatal(err)
	}
	stale := append([]appendOutcome(nil), replies[1]...)
	for i := range stale {
		if !stale[i].Duplicate {
			stale[i].Seq = 1
			break
		}
	}
	if k.check(1, plan[1], stale) == nil {
		t.Fatal("non-increasing seq accepted")
	}
}

func TestReadChecks(t *testing.T) {
	total := 50
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/campaigns":
			w.Write([]byte(`{"campaigns":[{"key":"w/0","rep_hash":"0123456789abcdef0123456789abcdef"}]}`))
		case "/v1/observations":
			json.NewEncoder(w).Encode(map[string]any{"total": total, "observations": []map[string]any{}})
		}
	}))
	defer srv.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	rng := rand.New(rand.NewSource(1))
	last := 40
	for i := 0; i < 4; i++ {
		if err := readOnce(c, srv.URL, "w", i, rng, &last); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	total = 30
	if err := readOnce(c, srv.URL, "w", 1, rng, &last); err == nil {
		t.Fatal("a read whose total decreased was accepted")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the metric lists mirror.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, e2eMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json %v, benchmark reports %v", b.EndToEnd, e2eMetrics)
	}
	if !reflect.DeepEqual(b.PerLayer, layerMetrics) {
		t.Errorf("per_layer in BENCHMARK.json differs from the traced run's metrics")
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads in BENCHMARK.json %v, benchmark runs %v", names, workloads)
	}
}
