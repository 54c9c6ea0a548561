package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/phash"
	"repro/internal/serve"
)

// ingestSetups is how many times an ingest run sets up (start the
// daemon, run the seeding job) to take the median set-up time. The last
// set-up serves the load.
const ingestSetups = 3

// maxLagP99 is the generator lag beyond which a run is invalid: the
// load generator could not keep to its schedule.
const maxLagP99 = 250 * time.Millisecond

// daemon is a seacma-serve child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr bytes.Buffer
	waited chan error
}

// newClient returns an HTTP client holding at most one connection, so
// each load stream is one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// startDaemon launches seacma-serve with one job worker on a free port
// and waits until /healthz answers.
func startDaemon(bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, fmt.Sprintf("serve-addr-%d", os.Getpid()))
	os.Remove(addrFile)
	d := &daemon{waited: make(chan error, 1)}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-jobs", "1", "-queue", "4")
	d.cmd.Stderr = &d.stderr
	// Take the daemon down with the benchmark if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.waited <- d.cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			d.base = "http://" + strings.TrimSpace(string(raw))
			break
		}
		if err := d.sleepOrExit(2*time.Millisecond, deadline); err != nil {
			return nil, err
		}
	}
	os.Remove(addrFile)
	c := newClient()
	defer c.CloseIdleConnections()
	for {
		if resp, err := c.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if err := d.sleepOrExit(2*time.Millisecond, deadline); err != nil {
			return nil, err
		}
	}
}

// sleepOrExit waits a moment, failing if the daemon died or the
// deadline passed.
func (d *daemon) sleepOrExit(pause time.Duration, deadline time.Time) error {
	select {
	case err := <-d.waited:
		d.waited <- err
		return fmt.Errorf("seacma-serve exited during start-up (%v): %s", err, d.stderr.String())
	case <-time.After(pause):
	}
	if time.Now().After(deadline) {
		d.stop()
		return errors.New("seacma-serve did not become healthy within 30s")
	}
	return nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM, kills it if it lingers, and waits
// for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.waited:
		d.waited <- err
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		d.waited <- <-d.waited
	}
}

// runSeedJob submits the seeding job, follows its event stream to the
// end and fetches the report bytes.
func runSeedJob(c *http.Client, base string, spec serve.JobSpec) ([]byte, error) {
	body, _ := json.Marshal(spec)
	resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var view serve.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit job: status %d, %v", resp.StatusCode, err)
	}
	resp, err = c.Get(base + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	done := false
	for sc.Scan() {
		if sc.Text() == "event: done" {
			done = true
		}
	}
	resp.Body.Close()
	if !done {
		return nil, fmt.Errorf("job %s event stream ended without done: %v", view.ID, sc.Err())
	}
	resp, err = c.Get(base + "/v1/jobs/" + view.ID + "/report")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rep, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("job %s report: status %d, %v", view.ID, resp.StatusCode, err)
	}
	return rep, nil
}

// getJSON fetches and decodes one JSON document.
func getJSON(c *http.Client, u string, v any) error {
	resp, err := c.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// campaignsPage is the GET /v1/campaigns reply.
type campaignsPage struct {
	Campaigns []struct {
		Key     string `json:"key"`
		RepHash string `json:"rep_hash"`
	} `json:"campaigns"`
}

// observationsPage is the GET /v1/observations?world= reply.
type observationsPage struct {
	Total        int `json:"total"`
	Observations []struct {
		Seq uint64 `json:"seq"`
	} `json:"observations"`
}

// batchReply is the POST /v1/observations reply to a batch.
type batchReply struct {
	World   string          `json:"world"`
	Results []appendOutcome `json:"results"`
}

// appendOutcome is what the store reports for one appended event.
type appendOutcome struct {
	Seq       uint64 `json:"seq"`
	Duplicate bool   `json:"duplicate"`
}

// liveHashes reads the live campaign representative hashes of a world.
func liveHashes(c *http.Client, base, world string) ([]phash.Hash, error) {
	var page campaignsPage
	if err := getJSON(c, base+"/v1/campaigns?world="+url.QueryEscape(world), &page); err != nil {
		return nil, err
	}
	var out []phash.Hash
	for _, cp := range page.Campaigns {
		h, err := phash.ParseHash(cp.RepHash)
		if err != nil {
			return nil, fmt.Errorf("campaign %s: %w", cp.Key, err)
		}
		out = append(out, h)
	}
	return out, nil
}

// storeEvents reads a world's event count.
func storeEvents(c *http.Client, base, world string) (int, error) {
	var page observationsPage
	err := getJSON(c, base+"/v1/observations?world="+url.QueryEscape(world)+"&limit=1", &page)
	return page.Total, err
}

// seqChecker validates batch replies against the generated stream: one
// result per event, strictly increasing sequence numbers for new
// events, and a duplicate flag (carrying the original's sequence
// number) exactly on the repeats the generator sent.
type seqChecker struct {
	size    int
	last    uint64
	seqOf   map[int]uint64 // flattened event index -> seq
	newSeen int
}

func newSeqChecker(size int) *seqChecker {
	return &seqChecker{size: size, seqOf: map[int]uint64{}}
}

func (k *seqChecker) check(b int, batch []ingestEvent, got []appendOutcome) error {
	if len(got) != len(batch) {
		return fmt.Errorf("batch %d: %d results for %d events", b, len(got), len(batch))
	}
	for i, ev := range batch {
		r := got[i]
		if ev.Kind == kindRepeat {
			want, ok := k.seqOf[ev.Of]
			if !r.Duplicate || !ok || r.Seq != want {
				return fmt.Errorf("batch %d event %d: repeat of event %d got seq %d duplicate %v, want seq %d duplicate",
					b, i, ev.Of, r.Seq, r.Duplicate, want)
			}
			continue
		}
		if r.Duplicate || r.Seq <= k.last {
			return fmt.Errorf("batch %d event %d: new event got seq %d duplicate %v after seq %d",
				b, i, r.Seq, r.Duplicate, k.last)
		}
		k.last = r.Seq
		k.seqOf[b*k.size+i] = r.Seq
		k.newSeen++
	}
	return nil
}

// loadStats is what one open-loop stream measured.
type loadStats struct {
	lat         samples // from each request's scheduled send time
	lag         samples // how late each request was sent
	outstanding int     // requests not completed when the stream ended
}

// openLoop sends n requests on a fixed schedule from start, one every
// interval, on one connection. Each latency counts from the request's
// scheduled time, so a stall also charges the requests queued behind
// it. The stream gives up on requests not yet sent by stopAt.
func openLoop(n int, start time.Time, interval time.Duration, stopAt time.Time, send func(i int) error) (loadStats, error) {
	var st loadStats
	var firstErr error
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		if now.After(stopAt) {
			st.outstanding = n - i
			break
		}
		st.lag.add(now.Sub(due))
		if err := send(i); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		st.lat.add(time.Since(due))
	}
	return st, firstErr
}

// ingestResult is one ingest load phase's measurements.
type ingestResult struct {
	window        time.Duration
	writes, reads loadStats
	failedWrites  int
	failedReads   int
	cpu           time.Duration
	rssMB         float64
	rssStartMB    float64
	rssEndMB      float64
	eventsStart   int
	eventsEnd     int
	newEvents     int
	plan          [][]ingestEvent
	firstErr      error
}

// setUpDaemon starts a daemon and runs the seeding job on it, checking
// the report against the reference digest.
func setUpDaemon(o options, spec serve.JobSpec, ref string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(o.serveBin, o.out)
	if err != nil {
		return nil, 0, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	rep, err := runSeedJob(c, d.base, spec)
	took := time.Since(t0)
	if err == nil {
		err = checkReport(rep, ref)
	}
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, took, nil
}

// driveIngest runs the write and read streams against a seeded daemon.
func driveIngest(seed int64, window time.Duration, d *daemon, world string) (*ingestResult, error) {
	ctl := newClient()
	defer ctl.CloseIdleConnections()
	live, err := liveHashes(ctl, d.base, world)
	if err != nil {
		return nil, err
	}
	nWrites := int(window.Seconds() * ingestBatchesPerS)
	nReads := int(window.Seconds() * ingestReadsPerS)
	r := &ingestResult{window: window, plan: planIngest(seed, live, nWrites, ingestBatchSize)}
	if r.eventsStart, err = storeEvents(ctl, d.base, world); err != nil {
		return nil, err
	}

	writer, reader := newClient(), newClient()
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()
	// Open both connections before the clock starts.
	if _, err := storeEvents(writer, d.base, world); err != nil {
		return nil, err
	}
	if _, err := storeEvents(reader, d.base, world); err != nil {
		return nil, err
	}

	rss := startRSS(d.pid())
	cpu0, err := processCPU(d.pid())
	if err != nil {
		rss.finish()
		return nil, err
	}
	start := time.Now().Add(20 * time.Millisecond)
	stopAt := start.Add(window + 10*time.Second)
	checker := newSeqChecker(ingestBatchSize)
	var wg sync.WaitGroup
	var werr, rerr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		r.writes, werr = openLoop(nWrites, start, time.Second/ingestBatchesPerS, stopAt, func(i int) error {
			err := postBatch(writer, d.base, world, i, r.plan[i], checker)
			if err != nil {
				r.failedWrites++
			}
			return err
		})
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(int64(mix64(seed, 4) >> 1)))
		lastTotal := r.eventsStart
		r.reads, rerr = openLoop(nReads, start, time.Second/ingestReadsPerS, stopAt, func(i int) error {
			err := readOnce(reader, d.base, world, i, rng, &lastTotal)
			if err != nil {
				r.failedReads++
			}
			return err
		})
	}()
	wg.Wait()
	cpu1, err := processCPU(d.pid())
	if err != nil {
		rss.finish()
		return nil, err
	}
	r.cpu = cpu1 - cpu0
	if r.rssMB, err = rss.finish(); err != nil {
		return nil, err
	}
	r.rssStartMB, r.rssEndMB = rss.first, rss.last
	r.firstErr = errors.Join(werr, rerr)
	r.newEvents = checker.newSeen
	if r.eventsEnd, err = storeEvents(ctl, d.base, world); err != nil {
		return nil, err
	}
	if r.failedWrites == 0 && r.writes.outstanding == 0 && r.eventsEnd != r.eventsStart+r.newEvents {
		r.failedWrites++
		r.firstErr = errors.Join(r.firstErr, fmt.Errorf("store holds %d events, want %d + %d new",
			r.eventsEnd, r.eventsStart, r.newEvents))
	}
	return r, nil
}

// postBatch sends one batch and checks the reply.
func postBatch(c *http.Client, base, world string, i int, batch []ingestEvent, k *seqChecker) error {
	reqs := make([]serve.ObservationRequest, len(batch))
	for j, ev := range batch {
		reqs[j] = serve.ObservationRequest{World: world, Hash: ev.Hash.String(), E2LD: ev.E2LD, Tick: ev.Tick, Source: "api"}
	}
	body, _ := json.Marshal(reqs)
	resp, err := c.Post(base+"/v1/observations", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("batch %d: status %d", i, resp.StatusCode)
	}
	var reply batchReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return fmt.Errorf("batch %d: %w", i, err)
	}
	return k.check(i, batch, reply.Results)
}

// readOnce alternates the two live-state reads: the world's campaigns,
// and a page of its observation log after a random position. The
// store's total must never decrease and a page must hold increasing
// sequence numbers past its cursor.
func readOnce(c *http.Client, base, world string, i int, rng *rand.Rand, lastTotal *int) error {
	if i%2 == 0 {
		var page campaignsPage
		return getJSON(c, base+"/v1/campaigns?world="+url.QueryEscape(world), &page)
	}
	after := uint64(rng.Intn(*lastTotal + 1))
	var page observationsPage
	if err := getJSON(c, fmt.Sprintf("%s/v1/observations?world=%s&after=%d&limit=100", base, url.QueryEscape(world), after), &page); err != nil {
		return err
	}
	if page.Total < *lastTotal {
		return fmt.Errorf("read %d: total fell from %d to %d", i, *lastTotal, page.Total)
	}
	*lastTotal = page.Total
	prev := after
	for _, ob := range page.Observations {
		if ob.Seq <= prev {
			return fmt.Errorf("read %d: seq %d after %d", i, ob.Seq, prev)
		}
		prev = ob.Seq
	}
	return nil
}

// ingestPhase sets the daemon up for the seeding job spec setups times
// (the last one serves the load) and drives the load. It returns the
// set-up times and the load result; the daemon is stopped before it
// returns.
func ingestPhase(o options, spec serve.JobSpec, ref string, setups int) ([]float64, *ingestResult, error) {
	var times []float64
	var d *daemon
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		var err error
		if d, took, err = setUpDaemon(o, spec, ref); err != nil {
			return nil, nil, err
		}
		times = append(times, took.Seconds())
	}
	defer d.stop()
	res, err := driveIngest(o.seed, o.duration, d, serve.WorldKey(spec))
	return times, res, err
}

// runIngest is the ingest workload: a seeded seacma-serve receiving an
// open-loop stream of observation batches on one connection while one
// more connection reads live state on its own schedule.
func runIngest(ctx context.Context, o options) (*outcome, error) {
	specs := jobSpecs(wIngest, o.seed, runtime.GOMAXPROCS(0))
	ref, err := referenceDigest(ctx, specs[0])
	if err != nil {
		return nil, err
	}
	setups, r, err := ingestPhase(o, specs[0], ref, ingestSetups)
	if err != nil {
		return nil, err
	}
	out := newOutcome(o, specs)
	if err := r.describe(out); err != nil {
		return nil, err
	}
	out.set("setup_s", medianOf(setups))
	out.set("op_p50_ms", r.writes.lat.median())
	if n := len(r.writes.lat); n > 0 {
		out.set("op_cpu_ms", float64(r.cpu.Nanoseconds())/1e6/float64(n))
	}
	out.set("rss_mb", r.rssMB)
	return out, nil
}

// describe fills the outcome's counts and info block from an ingest
// load, and rejects a run whose generator fell behind its schedule.
func (r *ingestResult) describe(out *outcome) error {
	out.Attempted = len(r.plan) + len(r.reads.lat) + r.failedReads + r.reads.outstanding
	out.Failed = r.failedWrites + r.failedReads + r.writes.outstanding + r.reads.outstanding
	if r.firstErr != nil {
		out.failures = append(out.failures, r.firstErr.Error())
	}
	lagW, _ := r.writes.lag.tailOf()
	lagR, _ := r.reads.lag.tailOf()
	wt, _ := r.writes.lat.tailOf()
	rt, _ := r.reads.lat.tailOf()
	out.Info["ingest"] = map[string]any{
		"batch_size":              ingestBatchSize,
		"offered_batches_per_s":   ingestBatchesPerS,
		"offered_events_per_s":    ingestBatchesPerS * ingestBatchSize,
		"offered_reads_per_s":     ingestReadsPerS,
		"event_shares":            kindShares(r.plan),
		"rss_start_mb":            r.rssStartMB,
		"rss_end_mb":              r.rssEndMB,
		"store_events_start":      r.eventsStart,
		"store_events_end":        r.eventsEnd,
		"new_events":              r.newEvents,
		"write_tail":              wt,
		"read_tail":               rt,
		"write_lag_tail":          lagW,
		"read_lag_tail":           lagR,
		"outstanding_writes":      r.writes.outstanding,
		"outstanding_reads":       r.reads.outstanding,
		"daemon_cpu_us_per_event": float64(r.cpu.Nanoseconds()) / 1e3 / float64(len(r.plan)*ingestBatchSize),
		"achieved_events_per_s":   float64(len(r.writes.lat)*ingestBatchSize) / r.window.Seconds(),
	}
	for _, lag := range []tail{lagW, lagR} {
		if time.Duration(lag.Value*1e6) > maxLagP99 {
			return fmt.Errorf("invalid run: the load generator fell behind (lag p%g %.1f ms > %v)",
				lag.P, lag.Value, maxLagP99)
		}
	}
	return nil
}
