package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/campstore"
	"repro/internal/obs"
	"repro/internal/phash"
)

// encodeCampaignsBody serializes a campaign list exactly as the
// /v1/campaigns handler does, so tests can byte-compare responses
// against locally computed projections.
func encodeCampaignsBody(t *testing.T, list []CampaignSummary) []byte {
	t.Helper()
	if list == nil {
		list = []CampaignSummary{}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"campaigns": list}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLiveCampaignsMatchOneShot is the service-mode contract of the
// incremental campaign store: after the same event stream — a full
// pipeline job, then extra observations over the API — the daemon's
// GET /v1/campaigns (served from the live incremental state, never a
// batch recompute) is byte-identical to the projection computed from a
// one-shot CLI-equivalent run's private store fed the same appends.
func TestLiveCampaignsMatchOneShot(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	spec := JobSpec{Tiny: true, Seed: 1, Days: 1, MaxSources: 40}
	world := WorldKey(spec)

	// One-shot reference: the run owns a private incremental store.
	exp := seacma.NewExperiment(SpecExperimentConfig(spec))
	res, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref := res.Discovery.Store
	if ref == nil {
		t.Fatal("one-shot run did not attach an incremental store")
	}

	// Daemon: same spec as an HTTP job against the real runner.
	srv, ts, _ := newTestServer(t, nil)
	code, body := do(t, "POST", ts.URL+"/v1/jobs", `{"tiny":true,"seed":1,"days":1,"max_sources":40}`)
	if code != 202 {
		t.Fatalf("submit = %d %s", code, body)
	}
	v := decodeView(t, body)
	waitStateWithin(t, srv.Store(), v.ID, StateDone, time.Minute)

	compare := func(stage string) {
		t.Helper()
		code, got := do(t, "GET", ts.URL+"/v1/campaigns", "")
		if code != 200 {
			t.Fatalf("%s: campaigns = %d %s", stage, code, got)
		}
		want := encodeCampaignsBody(t, LiveCampaignSummaries(world, ref))
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: live /v1/campaigns diverges from one-shot projection:\n service:  %s\n one-shot: %s", stage, got, want)
		}
		if !bytes.Contains(got, []byte(`"key": "`+world+`/`)) {
			t.Fatalf("%s: live campaigns missing world-scoped keys: %s", stage, got)
		}
	}
	compare("after job")

	// Extend the stream over the API: a 1-bit neighbour of a campaign
	// representative on a fresh domain joins that campaign's cluster.
	reps := LiveCampaignSummaries(world, ref)
	if len(reps) == 0 {
		t.Fatal("no live campaigns after a completed job")
	}
	h, err := phash.ParseHash(reps[0].RepHash)
	if err != nil {
		t.Fatal(err)
	}
	tick := time.Unix(1700000000, 0).UTC()
	ev := campstore.Event{Hash: h.FlipBits(0), E2LD: "api-sighting.example", Tick: tick, Source: campstore.SourceAPI}

	req := fmt.Sprintf(`{"world":%q,"hash":%q,"e2ld":%q,"tick":%q}`,
		world, ev.Hash.String(), ev.E2LD, tick.Format(time.RFC3339Nano))
	code, body = do(t, "POST", ts.URL+"/v1/observations", req)
	if code != 200 {
		t.Fatalf("append observation = %d %s", code, body)
	}
	var ar appendResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.World != world || ar.Duplicate || !ar.NewPoint {
		t.Fatalf("append response = %+v", ar)
	}
	if _, err := ref.Append(ev); err != nil {
		t.Fatal(err)
	}
	compare("after API append")

	// The appended domain must now appear in the live projection.
	if code, got := do(t, "GET", ts.URL+"/v1/campaigns", ""); code != 200 || !bytes.Contains(got, []byte("api-sighting.example")) {
		t.Fatalf("appended domain missing from live campaigns: %d %s", code, got)
	}
}

// TestObservationsEndpoints covers the append/read API without running
// any job: validation failures, dedup, pagination, and the world index.
func TestObservationsEndpoints(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 1, Obs: obs.New(), OracleEvery: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer drainStore(t, srv.Store())

	post := func(body string) (int, []byte) {
		t.Helper()
		return do(t, "POST", ts.URL+"/v1/observations", body)
	}
	base := phash.Hash{Hi: 0xfeed, Lo: 0xbeef}

	// Validation: bad hash, missing e2ld, reserved and unknown sources.
	for name, body := range map[string]string{
		"bad hash":       `{"hash":"zz","e2ld":"a.example"}`,
		"missing e2ld":   fmt.Sprintf(`{"hash":%q}`, base.String()),
		"crawl source":   fmt.Sprintf(`{"hash":%q,"e2ld":"a.example","source":"crawl"}`, base.String()),
		"unknown source": fmt.Sprintf(`{"hash":%q,"e2ld":"a.example","source":"wat"}`, base.String()),
		"unknown field":  fmt.Sprintf(`{"hash":%q,"e2ld":"a.example","nope":1}`, base.String()),
	} {
		if code, b := post(body); code != 400 {
			t.Fatalf("%s = %d %s", name, code, b)
		}
	}

	// Appends address a world by spec fields; repeats dedup.
	tick := time.Unix(1700000000, 0).UTC()
	appendOne := func(h phash.Hash, e2ld string) appendResponse {
		t.Helper()
		code, b := post(fmt.Sprintf(`{"seed":7,"tiny":true,"hash":%q,"e2ld":%q,"tick":%q}`,
			h.String(), e2ld, tick.Format(time.RFC3339Nano)))
		if code != 200 {
			t.Fatalf("append = %d %s", code, b)
		}
		var ar appendResponse
		if err := json.Unmarshal(b, &ar); err != nil {
			t.Fatal(err)
		}
		return ar
	}
	for i := 0; i < 6; i++ {
		ar := appendOne(base.FlipBits(i%3), fmt.Sprintf("d%d.example", i%3))
		if ar.World != "world-7-tiny" {
			t.Fatalf("append world = %q", ar.World)
		}
		if dup := i >= 3; ar.Duplicate != dup {
			t.Fatalf("append %d duplicate = %v", i, ar.Duplicate)
		}
	}

	// Paginated read: 2 + 1 with a next_after cursor only on page one.
	code, b := do(t, "GET", ts.URL+"/v1/observations?world=world-7-tiny&limit=2", "")
	if code != 200 || !strings.Contains(string(b), `"next_after": 2`) {
		t.Fatalf("page one = %d %s", code, b)
	}
	code, b = do(t, "GET", ts.URL+"/v1/observations?world=world-7-tiny&after=2&limit=2", "")
	if code != 200 || strings.Contains(string(b), "next_after") {
		t.Fatalf("page two = %d %s", code, b)
	}
	var page struct {
		World        string              `json:"world"`
		Total        int                 `json:"total"`
		Observations []ObservationRecord `json:"observations"`
	}
	if err := json.Unmarshal(b, &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 3 || len(page.Observations) != 1 || page.Observations[0].Seq != 3 {
		t.Fatalf("page two = %+v", page)
	}
	if got := page.Observations[0]; got.Source != campstore.SourceAPI || !got.Tick.Equal(tick) {
		t.Fatalf("record = %+v", got)
	}

	// World index lists the store; unknown worlds and bad cursors fail.
	code, b = do(t, "GET", ts.URL+"/v1/observations", "")
	if code != 200 || !strings.Contains(string(b), `"world-7-tiny"`) || !strings.Contains(string(b), `"observations": 3`) {
		t.Fatalf("world index = %d %s", code, b)
	}
	if code, _ = do(t, "GET", ts.URL+"/v1/observations?world=nope", ""); code != 404 {
		t.Fatalf("unknown world = %d", code)
	}
	if code, _ = do(t, "GET", ts.URL+"/v1/observations?world=world-7-tiny&limit=9999", ""); code != 400 {
		t.Fatalf("bad limit = %d", code)
	}
}

// TestObservationsRequireOwner verifies both endpoints refuse when a
// stub runner replaced the pipeline owner.
func TestObservationsRequireOwner(t *testing.T) {
	_, ts, _ := newTestServer(t, instantRunner)
	if code, _ := do(t, "POST", ts.URL+"/v1/observations", `{"hash":"0","e2ld":"a"}`); code != 503 {
		t.Fatalf("append without owner = %d", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/v1/observations", ""); code != 503 {
		t.Fatalf("read without owner = %d", code)
	}
}
