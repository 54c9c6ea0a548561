package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/serve"
)

func TestParseFlags(t *testing.T) {
	sc, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-jobs", "4", "-queue", "3",
		"-metrics", "m.json", "-addr-file", "a.txt", "-drain-timeout", "5s"})
	if err != nil {
		t.Fatal(err)
	}
	if sc.addr != "127.0.0.1:0" || sc.jobs != 4 || sc.queueCap != 3 {
		t.Fatalf("addr/jobs/queue = %q/%d/%d", sc.addr, sc.jobs, sc.queueCap)
	}
	if sc.metrics != "m.json" || sc.addrFile != "a.txt" || sc.drainTimeout != 5*time.Second {
		t.Fatalf("metrics/addrFile/drain = %q/%q/%v", sc.metrics, sc.addrFile, sc.drainTimeout)
	}
	if _, err := parseFlags([]string{"-nope"}); err == nil {
		t.Fatal("unknown flag must error")
	}
	sc, err = parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.jobs != 2 || sc.queueCap != 16 || sc.drainTimeout != time.Minute {
		t.Fatalf("defaults = %d/%d/%v", sc.jobs, sc.queueCap, sc.drainTimeout)
	}
	// Nonsense values fail at parse time with a message naming the flag
	// instead of being replaced or acted on. Only parsing runs here; no
	// daemon starts.
	for _, bad := range [][]string{
		{"-jobs", "0"},
		{"-jobs", "-1"},
		{"-queue", "0"},
		{"-queue", "-4"},
		{"-drain-timeout", "0s"},
		{"-drain-timeout", "-1s"},
		{"-oracle-every", "-1"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("%v accepted", bad)
		} else if !strings.Contains(err.Error(), bad[0]) {
			t.Errorf("%v: error %q does not name the flag", bad, err)
		}
	}
	if sc, err := parseFlags([]string{"-oracle-every", "0"}); err != nil || sc.oracleEvery != 0 {
		t.Fatalf("-oracle-every 0 (never): %v", err)
	}
}

// TestServeSmoke is the end-to-end service check (the make serve-smoke
// target): boot the real daemon on a random TCP port, submit the
// example seed-list job, poll it to completion over HTTP, and verify
// the fetched report is byte-identical to the one-shot pipeline run on
// the same spec — then shut down gracefully and verify nothing leaked.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full daemon + pipeline run")
	}
	goroutinesBefore := runtime.NumGoroutine()

	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	metricsFile := filepath.Join(dir, "metrics.json")
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	runDone := make(chan error, 1)
	go func() {
		runDone <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-jobs", "2", "-metrics", metricsFile,
		}, io.Discard, io.Discard)
	}()

	base := "http://" + waitForAddr(t, addrFile)

	specJSON, err := os.ReadFile(filepath.Join("..", "..", "examples", "serve", "job.json"))
	if err != nil {
		t.Fatalf("example job spec: %v", err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var view struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(3 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish in time", view.ID)
		}
		body := httpGet(t, base+"/v1/jobs/"+view.ID)
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "failed" {
			t.Fatalf("job failed: %s", st.Error)
		}
		if st.State == "done" {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	got := httpGet(t, base+"/v1/jobs/"+view.ID+"/report")

	// The one-shot equivalent: the exact experiment configuration the
	// daemon derives from the same spec (what `seacma-report -json`
	// writes for those flags).
	var spec serve.JobSpec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		t.Fatal(err)
	}
	exp := seacma.NewExperiment(serve.SpecExperimentConfig(spec))
	res, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.Report().WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("service report diverges from one-shot run:\n service %d bytes\n one-shot %d bytes\n%s",
			len(got), want.Len(), firstDiff(got, want.Bytes()))
	}

	var campaigns struct {
		Campaigns []struct {
			Key string `json:"key"`
		} `json:"campaigns"`
	}
	if err := json.Unmarshal(httpGet(t, base+"/v1/campaigns"), &campaigns); err != nil {
		t.Fatal(err)
	}
	if len(campaigns.Campaigns) == 0 {
		t.Fatal("no campaigns exposed after a completed job")
	}
	if !bytes.Contains(httpGet(t, base+"/metrics"), []byte("serve_jobs_completed_total")) {
		t.Fatal("metrics endpoint missing serve counters")
	}

	// Graceful shutdown: signal, wait, and confirm the final snapshot
	// and a quiescent goroutine count.
	stop()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if _, err := os.Stat(metricsFile); err != nil {
		t.Fatalf("final metrics snapshot missing: %v", err)
	}
	waitForGoroutines(t, goroutinesBefore)
}

func waitForAddr(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return string(b)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("daemon never wrote its address file")
	return ""
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	end := func(s []byte) int {
		if i+80 < len(s) {
			return i + 80
		}
		return len(s)
	}
	return fmt.Sprintf("diverges at byte %d:\n  service:  ...%s\n  one-shot: ...%s", i, a[lo:end(a)], b[lo:end(b)])
}

// waitForGoroutines asserts the process returns to its pre-daemon
// goroutine count (scheduler teardown is asynchronous, so poll).
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak after shutdown: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}
