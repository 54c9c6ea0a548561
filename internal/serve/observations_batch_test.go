package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campstore"
	"repro/internal/obs"
	"repro/internal/phash"
)

// TestObservationsBatchAppend covers the JSON-array form of POST
// /v1/observations: per-event results in input order, whole-batch
// validation (nothing appended on a bad entry), same-world addressing,
// and interop with the single-object form.
func TestObservationsBatchAppend(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 1, Obs: obs.New()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer drainStore(t, srv.Store())

	post := func(body string) (int, []byte) {
		t.Helper()
		return do(t, "POST", ts.URL+"/v1/observations", body)
	}
	base := phash.Hash{Hi: 0xabcd, Lo: 0x1234}
	tick := time.Unix(1700000000, 0).UTC()
	entry := func(h phash.Hash, e2ld string) string {
		return fmt.Sprintf(`{"seed":9,"tiny":true,"hash":%q,"e2ld":%q,"tick":%q}`,
			h.String(), e2ld, tick.Format(time.RFC3339Nano))
	}

	// A batch with an internal duplicate: per-event results must track
	// input order, and the duplicate resolves to the first copy's seq.
	code, b := post("[" + strings.Join([]string{
		entry(base, "a.example"),
		entry(base.FlipBits(0), "b.example"),
		entry(base, "a.example"), // duplicate of the first
	}, ",") + "]")
	if code != 200 {
		t.Fatalf("batch append = %d %s", code, b)
	}
	var br batchAppendResponse
	if err := json.Unmarshal(b, &br); err != nil {
		t.Fatal(err)
	}
	if br.World != "world-9-tiny" || len(br.Results) != 3 {
		t.Fatalf("batch response = %+v", br)
	}
	if br.Results[0].Seq != 1 || br.Results[0].Duplicate || !br.Results[0].NewPoint || !br.Results[0].NewHash {
		t.Fatalf("result 0 = %+v", br.Results[0])
	}
	if br.Results[1].Seq != 2 || br.Results[1].Duplicate || !br.Results[1].NewHash {
		t.Fatalf("result 1 = %+v", br.Results[1])
	}
	if br.Results[2].Seq != 1 || !br.Results[2].Duplicate {
		t.Fatalf("result 2 = %+v", br.Results[2])
	}

	// Replaying one of them through the single-object form is a
	// duplicate of the same log: both forms share the store.
	code, b = post(entry(base.FlipBits(0), "b.example"))
	if code != 200 {
		t.Fatalf("single append = %d %s", code, b)
	}
	var ar appendResponse
	if err := json.Unmarshal(b, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Duplicate || ar.Seq != 2 {
		t.Fatalf("single after batch = %+v", ar)
	}

	// Whole-batch validation: a bad entry rejects the batch before
	// anything is appended, and mixed worlds are refused.
	count := func() int {
		code, b := do(t, "GET", ts.URL+"/v1/observations?world=world-9-tiny&limit=1000", "")
		if code != 200 {
			t.Fatalf("read = %d %s", code, b)
		}
		var page struct {
			Total int `json:"total"`
		}
		if err := json.Unmarshal(b, &page); err != nil {
			t.Fatal(err)
		}
		return page.Total
	}
	before := count()
	for name, body := range map[string]string{
		"empty batch":   `[]`,
		"bad hash":      `[` + entry(base.FlipBits(1), "c.example") + `,{"seed":9,"tiny":true,"hash":"zz","e2ld":"d.example"}]`,
		"crawl source":  fmt.Sprintf(`[{"seed":9,"tiny":true,"hash":%q,"e2ld":"e.example","source":"crawl"}]`, base.String()),
		"mixed worlds":  `[` + entry(base.FlipBits(2), "f.example") + `,` + strings.Replace(entry(base.FlipBits(3), "g.example"), `"seed":9`, `"seed":8`, 1) + `]`,
		"unknown field": `[{"seed":9,"tiny":true,"hash":"00","e2ld":"h.example","nope":1}]`,
	} {
		if code, b := post(body); code != 400 {
			t.Fatalf("%s = %d %s", name, code, b)
		}
	}
	if after := count(); after != before {
		t.Fatalf("rejected batches appended events: %d -> %d", before, after)
	}
}

// TestConcurrentObservationIngest fires several HTTP batch appenders at
// one world while readers poll /v1/observations and /v1/campaigns, then
// checks dedup collapsed the shared stream and the store still matches
// the batch-recompute oracle. Run under -race by make test-race.
func TestConcurrentObservationIngest(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 1, Obs: obs.New()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer drainStore(t, srv.Store())

	base := phash.Hash{Hi: 1 << 30, Lo: 1 << 50}
	tick := time.Unix(1700000000, 0).UTC()
	var entries []string
	for c := 0; c < 3; c++ {
		for i := 0; i < 20; i++ {
			h := base.FlipBits(40*c, 40*c+1+i%10)
			entries = append(entries, fmt.Sprintf(`{"world":"load","hash":%q,"e2ld":"c%dd%d.example","tick":%q}`,
				h.String(), c, i%5, tick.Add(time.Duration(i)*time.Second).Format(time.RFC3339Nano)))
		}
	}

	stop := make(chan struct{})
	var readWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				do(t, "GET", ts.URL+"/v1/observations?world=load&limit=50", "")
				do(t, "GET", ts.URL+"/v1/campaigns", "")
			}
		}()
	}

	const appenders = 4
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(shift int) {
			defer wg.Done()
			// Shifted batches of 8 over the same shared entry set, so
			// concurrent tranches collide on dedup and shared hashes.
			for off := 0; off < len(entries); off += 8 {
				end := off + 8
				if end > len(entries) {
					end = len(entries)
				}
				batch := make([]string, 0, end-off)
				for i := off; i < end; i++ {
					batch = append(batch, entries[(i+shift)%len(entries)])
				}
				code, b := do(t, "POST", ts.URL+"/v1/observations", "["+strings.Join(batch, ",")+"]")
				if code != 200 {
					t.Errorf("batch append = %d %s", code, b)
					return
				}
			}
		}(a * 13)
	}
	wg.Wait()
	close(stop)
	readWG.Wait()

	st := srv.owner.world("load", false)
	if st == nil {
		t.Fatal("world store missing after ingest")
	}
	if got, want := st.EventCount(), len(entries); got != want {
		t.Fatalf("EventCount = %d, want %d (dedup across concurrent batches)", got, want)
	}
	if err := st.RunOracle(); err != nil {
		t.Fatalf("oracle after concurrent HTTP ingest: %v", err)
	}
}

// TestServeIngestLoad is the canned ingest load `make profile-serve`
// profiles: a store seeded with one campaign per cluster, as discovery
// leaves a daemon world, then sustained concurrent batch appends plus
// snapshot reads. It doubles as a correctness check (oracle at the
// end), so it also runs in plain go test.
func TestServeIngestLoad(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 1, Obs: obs.New()})
	defer drainStore(t, srv.Store())
	owner := srv.owner
	st := owner.world("profile", true)

	base := phash.Hash{Hi: 0x5a5a, Lo: 0xa5a5}
	tick := time.Unix(1700000000, 0).UTC()
	const (
		writers = 4
		rounds  = 40
		batch   = 12
	)
	for c := 0; c < 7; c++ {
		h := base.FlipBits(18*c%phash.Bits, (18*c+1)%phash.Bits)
		seed := make([]campstore.Event, 3)
		for i := range seed {
			seed[i] = campstore.Event{Hash: h.FlipBits(100 + i), E2LD: fmt.Sprintf("c%dd%d.example", c, i), Tick: tick}
		}
		if _, err := st.AppendBatch(seed); err != nil {
			t.Fatal(err)
		}
		if err := st.RegisterCampaign(campstore.Campaign{ID: c, Category: "Techsupport",
			RepHash: seed[0].Hash, RepE2LD: seed[0].E2LD}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				events := make([]campstore.Event, batch)
				for i := range events {
					// Half the stream is shared across writers (dedup +
					// shared hashes), half is writer-private growth.
					c := (r*batch + i) % 7
					h := base.FlipBits(18*c%phash.Bits, (18*c+1+i%9)%phash.Bits)
					dom := fmt.Sprintf("c%dd%d.example", c, i%4)
					if i%2 == 1 {
						h = h.FlipBits((w * 29) % phash.Bits)
						dom = fmt.Sprintf("w%d-%s", w, dom)
					}
					events[i] = campstore.Event{Hash: h, E2LD: dom,
						Tick: tick.Add(time.Duration(r) * time.Minute)}
				}
				if _, err := st.AppendBatch(events); err != nil {
					t.Errorf("load append: %v", err)
					return
				}
				st.Events(uint64(r*batch/2), 64)
				st.LiveLabels()
				st.Stats()
				st.LiveCampaigns()
			}
		}(w)
	}
	wg.Wait()
	if err := st.RunOracle(); err != nil {
		t.Fatalf("oracle after ingest load: %v", err)
	}
	if st.EventCount() == 0 || st.Points() == 0 {
		t.Fatal("load produced no events")
	}
}
