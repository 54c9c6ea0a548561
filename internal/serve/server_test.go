package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// newTestServer wires a Server around the given runner with a fresh
// registry and registers cleanup that drains the pool.
func newTestServer(t *testing.T, runner Runner) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	srv := New(Config{Workers: 2, QueueCap: 8, Obs: reg, Runner: runner, Version: "test"})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainStore(t, srv.Store())
	})
	return srv, ts, reg
}

// do issues a request and returns status + body.
func do(t *testing.T, method, url string, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func decodeView(t *testing.T, b []byte) JobView {
	t.Helper()
	var v JobView
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("decode job view: %v (%s)", err, b)
	}
	return v
}

func TestAPISubmitAndQuery(t *testing.T) {
	srv, ts, _ := newTestServer(t, instantRunner)

	code, body := do(t, "POST", ts.URL+"/v1/jobs", `{"seed": 5, "tiny": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, body)
	}
	v := decodeView(t, body)
	if v.ID == "" || v.Spec.Seed != 5 || !v.Spec.Tiny {
		t.Fatalf("submit view = %+v", v)
	}
	waitState(t, srv.Store(), v.ID, StateDone)

	code, body = do(t, "GET", ts.URL+"/v1/jobs/"+v.ID, "")
	if code != http.StatusOK {
		t.Fatalf("get job status %d", code)
	}
	got := decodeView(t, body)
	if got.State != StateDone || got.Campaigns != 1 {
		t.Fatalf("job view = %+v", got)
	}

	code, body = do(t, "GET", ts.URL+"/v1/jobs", "")
	if code != http.StatusOK || !strings.Contains(string(body), v.ID) {
		t.Fatalf("list status %d: %s", code, body)
	}

	code, body = do(t, "GET", ts.URL+"/v1/jobs/"+v.ID+"/report", "")
	if code != http.StatusOK || string(body) != `{"report":"seed-5"}` {
		t.Fatalf("report = %d %q", code, body)
	}

	code, body = do(t, "GET", ts.URL+"/v1/campaigns", "")
	if code != http.StatusOK || !strings.Contains(string(body), v.ID+"/0") {
		t.Fatalf("campaigns = %d %s", code, body)
	}
	code, body = do(t, "GET", ts.URL+"/v1/campaigns/"+v.ID+"/0", "")
	if code != http.StatusOK || !strings.Contains(string(body), `"tech_support"`) {
		t.Fatalf("campaign by key = %d %s", code, body)
	}
	code, body = do(t, "GET", ts.URL+"/v1/clusters?job="+v.ID, "")
	if code != http.StatusOK || !strings.Contains(string(body), `"se": true`) {
		t.Fatalf("clusters = %d %s", code, body)
	}
}

func TestAPIErrorPaths(t *testing.T) {
	srv, ts, _ := newTestServer(t, instantRunner)

	// Malformed JSON → 400 with a JSON error body.
	code, body := do(t, "POST", ts.URL+"/v1/jobs", `{"seed": `)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "bad job spec") {
		t.Fatalf("bad JSON = %d %s", code, body)
	}
	// Unknown fields → 400 (catches client typos like "max_source").
	code, body = do(t, "POST", ts.URL+"/v1/jobs", `{"max_source": 10}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "max_source") {
		t.Fatalf("unknown field = %d %s", code, body)
	}
	// Out-of-range spec → 400 via Validate.
	code, body = do(t, "POST", ts.URL+"/v1/jobs", `{"workers": 100}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "workers") {
		t.Fatalf("invalid spec = %d %s", code, body)
	}
	// Unknown job → 404 everywhere.
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/report", "/v1/campaigns/job-999999/0"} {
		if code, _ := do(t, "GET", ts.URL+path, ""); code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, code)
		}
	}
	if code, _ := do(t, "POST", ts.URL+"/v1/jobs/job-999999/cancel", ""); code != http.StatusNotFound {
		t.Fatalf("cancel unknown = %d, want 404", code)
	}
	// Non-integer campaign ID → 400.
	if code, _ := do(t, "GET", ts.URL+"/v1/campaigns/job-000001/zero", ""); code != http.StatusBadRequest {
		t.Fatalf("bad campaign id = %d, want 400", code)
	}

	// Cancelling a finished job → 409.
	code, body = do(t, "POST", ts.URL+"/v1/jobs", `{}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	v := decodeView(t, body)
	waitState(t, srv.Store(), v.ID, StateDone)
	if code, _ = do(t, "POST", ts.URL+"/v1/jobs/"+v.ID+"/cancel", ""); code != http.StatusConflict {
		t.Fatalf("cancel finished = %d, want 409", code)
	}
}

func TestAPIReportLifecycle(t *testing.T) {
	br := newBlockingRunner()
	srv, ts, _ := newTestServer(t, br.run)

	code, body := do(t, "POST", ts.URL+"/v1/jobs", `{"seed": 3}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	v := decodeView(t, body)
	<-br.started
	waitState(t, srv.Store(), v.ID, StateRunning)

	// Running job: report not ready → 409 + Retry-After.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+v.ID+"/report", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("running report = %d (Retry-After %q)", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Cancel over the API: DELETE is an alias for POST .../cancel.
	code, body = do(t, "DELETE", ts.URL+"/v1/jobs/"+v.ID, "")
	if code != http.StatusOK {
		t.Fatalf("DELETE cancel = %d %s", code, body)
	}
	failed := waitState(t, srv.Store(), v.ID, StateFailed)
	if !strings.HasPrefix(failed.Error, "cancelled:") {
		t.Fatalf("cancelled job error = %q", failed.Error)
	}
	// Failed job: report is gone for good → 410.
	if code, _ = do(t, "GET", ts.URL+"/v1/jobs/"+v.ID+"/report", ""); code != http.StatusGone {
		t.Fatalf("failed report = %d, want 410", code)
	}
}

func TestAPIVersionMetricsHealth(t *testing.T) {
	_, ts, _ := newTestServer(t, instantRunner)

	code, body := do(t, "GET", ts.URL+"/v1/version", "")
	if code != http.StatusOK {
		t.Fatalf("version = %d", code)
	}
	var vi struct {
		Service   string `json:"service"`
		Version   string `json:"version"`
		GoVersion string `json:"go_version"`
	}
	if err := json.Unmarshal(body, &vi); err != nil {
		t.Fatal(err)
	}
	if vi.Service != "seacma-serve" || vi.Version != "test" || !strings.HasPrefix(vi.GoVersion, "go") {
		t.Fatalf("version info = %+v", vi)
	}

	if _, body = do(t, "POST", ts.URL+"/v1/jobs", `{}`); len(body) == 0 {
		t.Fatal("submit returned empty body")
	}
	code, body = do(t, "GET", ts.URL+"/metrics", "")
	if code != http.StatusOK || !strings.Contains(string(body), "serve_jobs_submitted_total") {
		t.Fatalf("metrics JSON = %d %s", code, body)
	}
	code, body = do(t, "GET", ts.URL+"/metrics?format=text", "")
	if code != http.StatusOK || !strings.Contains(string(body), "serve_jobs_submitted_total") {
		t.Fatalf("metrics text = %d %s", code, body)
	}

	code, body = do(t, "GET", ts.URL+"/healthz", "")
	if code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz = %d %s", code, body)
	}
}

// eventRunner emits a scripted streaming-progress sequence (the phase
// transitions plus three crawl commit ticks) once released, so SSE
// tests control exactly when events flow.
type eventRunner struct {
	started chan struct{}
	release chan struct{}
}

func (e *eventRunner) run(ctx context.Context, spec JobSpec, onEvent func(JobEvent)) (*JobResult, error) {
	e.started <- struct{}{}
	select {
	case <-e.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	onEvent(JobEvent{Phase: "reverse"})
	onEvent(JobEvent{Phase: "crawl"})
	for i := 1; i <= 3; i++ {
		onEvent(JobEvent{Phase: "crawl", Sessions: i, Total: 3})
	}
	for _, ph := range []string{"discover", "attribute", "milk"} {
		onEvent(JobEvent{Phase: ph})
	}
	return fakeResult(fmt.Sprintf("seed-%d", spec.Seed)), nil
}

type sseEvent struct {
	name string
	data string
}

// readSSE drains a text/event-stream body until EOF (the handler closes
// the stream after its "done" event).
func readSSE(t *testing.T, rd io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(rd)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read SSE stream: %v", err)
	}
	return out
}

// summarizeSSE compresses a decoded event stream into comparable
// "name:detail" strings.
func summarizeSSE(t *testing.T, evs []sseEvent) []string {
	t.Helper()
	var out []string
	for _, e := range evs {
		switch e.name {
		case "phase", "progress":
			var ev JobEvent
			if err := json.Unmarshal([]byte(e.data), &ev); err != nil {
				t.Fatalf("decode %s event %q: %v", e.name, e.data, err)
			}
			if e.name == "phase" {
				out = append(out, "phase:"+ev.Phase)
			} else {
				out = append(out, fmt.Sprintf("progress:%d/%d", ev.Sessions, ev.Total))
			}
		case "done":
			var v JobView
			if err := json.Unmarshal([]byte(e.data), &v); err != nil {
				t.Fatalf("decode done event %q: %v", e.data, err)
			}
			out = append(out, "done:"+string(v.State))
		default:
			t.Fatalf("unexpected SSE event %q (%s)", e.name, e.data)
		}
	}
	return out
}

// TestAPIJobEventsSSE covers the /v1/jobs/{id}/events stream end to
// end: a live subscriber opened before any progress sees every phase
// transition, every per-session crawl tick and the closing done event
// in runner order; a late subscriber to the finished job gets the
// prefix-compressed replay (phase marks, final crawl progress, done).
func TestAPIJobEventsSSE(t *testing.T) {
	er := &eventRunner{started: make(chan struct{}, 1), release: make(chan struct{})}
	srv, ts, _ := newTestServer(t, er.run)

	if code, _ := do(t, "GET", ts.URL+"/v1/jobs/job-999999/events", ""); code != http.StatusNotFound {
		t.Fatalf("events for unknown job = %d, want 404", code)
	}

	code, body := do(t, "POST", ts.URL+"/v1/jobs", `{"seed": 7}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	v := decodeView(t, body)
	<-er.started

	// Live stream: subscribe while the job is parked, then release it.
	// The subscription is registered before response headers are written,
	// so once Get returns no event can be missed.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("events = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	close(er.release)
	live := summarizeSSE(t, readSSE(t, resp.Body))
	resp.Body.Close()
	wantLive := []string{
		"phase:reverse", "phase:crawl",
		"progress:1/3", "progress:2/3", "progress:3/3",
		"phase:discover", "phase:attribute", "phase:milk",
		"done:done",
	}
	if fmt.Sprint(live) != fmt.Sprint(wantLive) {
		t.Fatalf("live event sequence:\n got %v\nwant %v", live, wantLive)
	}

	// Replay: a finished job's stream is the recorded phase marks, the
	// final crawl progress, and an immediate done.
	waitState(t, srv.Store(), v.ID, StateDone)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	replay := summarizeSSE(t, readSSE(t, resp.Body))
	resp.Body.Close()
	wantReplay := []string{
		"phase:reverse", "phase:crawl", "phase:discover", "phase:attribute", "phase:milk",
		"progress:3/3",
		"done:done",
	}
	if fmt.Sprint(replay) != fmt.Sprint(wantReplay) {
		t.Fatalf("replay event sequence:\n got %v\nwant %v", replay, wantReplay)
	}

	// The job view carries the streaming progress fields too.
	final, err := srv.Store().Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Sessions != 3 || final.SessionsTotal != 3 {
		t.Fatalf("final view progress = %d/%d, want 3/3", final.Sessions, final.SessionsTotal)
	}
}

func TestAPIMetricsDisabled(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 1, Runner: instantRunner})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer drainStore(t, srv.Store())
	if code, _ := do(t, "GET", ts.URL+"/metrics", ""); code != http.StatusNotFound {
		t.Fatalf("metrics without registry = %d, want 404", code)
	}
}

// TestAPIShutdown covers the graceful-shutdown contract at the HTTP
// layer: during and after drain, submissions get 503 and healthz turns
// unhealthy, while polling and reports keep working.
func TestAPIShutdown(t *testing.T) {
	br := newBlockingRunner()
	reg := obs.New()
	srv := New(Config{Workers: 1, QueueCap: 4, Obs: reg, Runner: br.run})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := do(t, "POST", ts.URL+"/v1/jobs", `{"seed": 1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	v := decodeView(t, body)
	<-br.started

	waitState(t, srv.Store(), v.ID, StateRunning)
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Store().Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	if code, _ = do(t, "POST", ts.URL+"/v1/jobs", `{"seed": 2}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", code)
	}
	code, body = do(t, "GET", ts.URL+"/healthz", "")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("healthz during drain = %d %s", code, body)
	}
	// Polling still works mid-drain.
	if code, _ = do(t, "GET", ts.URL+"/v1/jobs/"+v.ID, ""); code != http.StatusOK {
		t.Fatalf("poll during drain = %d", code)
	}

	close(br.release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// After a graceful drain the in-flight job completed and its report
	// is still queryable.
	if v, _ := srv.Store().Get(v.ID); v.State != StateDone {
		t.Fatalf("job after drain = %q, want done", v.State)
	}
	if code, _ = do(t, "GET", ts.URL+"/v1/jobs/"+v.ID+"/report", ""); code != http.StatusOK {
		t.Fatalf("report after drain = %d", code)
	}
}

// TestAPIRejectsTrailingData: a body must be exactly one JSON value.
// Trailing junk after an observation object or batch, or a second job
// spec after the first, is a 400, and nothing is appended or submitted.
func TestAPIRejectsTrailingData(t *testing.T) {
	obsSrv := New(Config{Workers: 1, QueueCap: 1, Obs: obs.New()})
	obsTS := httptest.NewServer(obsSrv.Handler())
	defer obsTS.Close()
	defer drainStore(t, obsSrv.Store())
	jobSrv, jobTS, _ := newTestServer(t, instantRunner)

	entry := `{"seed":9,"tiny":true,"hash":"000000000000abcd0000000000001234","e2ld":"a.example","tick":"2019-03-04T00:00:00Z"}`
	for _, tc := range []struct{ name, url, body string }{
		{"observation object", obsTS.URL + "/v1/observations", entry + ` junk`},
		{"observation batch", obsTS.URL + "/v1/observations", `[` + entry + `] junk`},
		{"second job spec", jobTS.URL + "/v1/jobs", `{"seed":1,"tiny":true} {"seed":2}`},
	} {
		if code, b := do(t, "POST", tc.url, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s = %d %s, want 400", tc.name, code, b)
		}
	}
	if st := obsSrv.owner.world("world-9-tiny", false); st != nil {
		t.Errorf("rejected observations created a world store with %d events", st.EventCount())
	}
	if jobs := jobSrv.Store().List(); len(jobs) != 0 {
		t.Errorf("rejected job spec submitted %d jobs", len(jobs))
	}
}
