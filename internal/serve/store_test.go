package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// fakeResult builds a minimal JobResult so stub runners can exercise the
// done path and the query endpoints.
func fakeResult(tag string) *JobResult {
	return &JobResult{
		Report:     core.Report{},
		ReportJSON: []byte(`{"report":"` + tag + `"}`),
		Campaigns: []CampaignSummary{
			{ID: 0, Category: "tech_support", Attacks: 3, Domains: []string{tag + ".example"}},
		},
		Clusters: []ClusterSummary{
			{ID: 0, SE: true, Category: "tech_support", Pages: 5, Domains: 1},
			{ID: 1, SE: false, Pages: 2, Domains: 2},
		},
	}
}

// instantRunner completes immediately with a fake result.
func instantRunner(ctx context.Context, spec JobSpec, onEvent func(JobEvent)) (*JobResult, error) {
	if onEvent != nil {
		for _, ph := range []string{"reverse", "crawl", "discover", "attribute", "milk"} {
			onEvent(JobEvent{Phase: ph})
		}
	}
	return fakeResult(fmt.Sprintf("seed-%d", spec.Seed)), nil
}

// blockingRunner parks jobs until released (or cancelled), so tests can
// observe queued/running states deterministically.
type blockingRunner struct {
	started chan string   // receives job seeds as they begin running
	release chan struct{} // close to let every parked job finish
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{started: make(chan string, 64), release: make(chan struct{})}
}

func (b *blockingRunner) run(ctx context.Context, spec JobSpec, onEvent func(JobEvent)) (*JobResult, error) {
	b.started <- fmt.Sprintf("seed-%d", spec.Seed)
	select {
	case <-b.release:
		return fakeResult(fmt.Sprintf("seed-%d", spec.Seed)), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, s *Store, id string, want JobState) JobView {
	t.Helper()
	return waitStateWithin(t, s, id, want, 10*time.Second)
}

// waitStateWithin is waitState with an explicit hang deadline, for jobs
// that run the real pipeline: under the race detector, with other test
// packages sharing the host's cores, a tiny-world job can take longer
// than the fake runners' 10 s.
func waitStateWithin(t *testing.T, s *Store, id string, want JobState, within time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		v, err := s.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if v.State == want {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, _ := s.Get(id)
	t.Fatalf("job %s stuck in %q, want %q", id, v.State, want)
	return JobView{}
}

// drainStore shuts the pool down and fails the test on leaked workers.
func drainStore(t *testing.T, s *Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestStoreLifecycle(t *testing.T) {
	reg := obs.New()
	s := NewStore(2, 16, instantRunner, reg)
	v, err := s.Submit(JobSpec{Seed: 7, Tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "job-000001" || v.State != StateQueued {
		t.Fatalf("submit view = %q/%q", v.ID, v.State)
	}
	done := waitState(t, s, v.ID, StateDone)
	if done.Campaigns != 1 || done.Clusters != 2 {
		t.Fatalf("done counts = %d campaigns, %d clusters", done.Campaigns, done.Clusters)
	}
	if done.ReportURL != "/v1/jobs/job-000001/report" {
		t.Fatalf("report url = %q", done.ReportURL)
	}
	if len(done.Phases) != 5 || done.Phases[0].Name != "reverse" || done.Phases[4].Name != "milk" {
		t.Fatalf("phase marks = %+v", done.Phases)
	}
	if done.Phase != "" {
		t.Fatalf("finished job still shows active phase %q", done.Phase)
	}

	rep, state, err := s.Report(v.ID)
	if err != nil || state != StateDone || string(rep) != `{"report":"seed-7"}` {
		t.Fatalf("report = %q/%q/%v", rep, state, err)
	}
	camps := s.Campaigns("")
	if len(camps) != 1 || camps[0].Key != "job-000001/0" || camps[0].JobID != "job-000001" {
		t.Fatalf("campaigns = %+v", camps)
	}
	if got := len(s.Clusters(v.ID)); got != 2 {
		t.Fatalf("clusters = %d", got)
	}
	if got := len(s.Clusters("job-999999")); got != 0 {
		t.Fatalf("clusters for unknown job = %d", got)
	}
	if _, err := s.Campaign("job-000001", 42); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing campaign err = %v", err)
	}

	if got := reg.CounterValue("serve_jobs_submitted_total"); got != 1 {
		t.Fatalf("submitted counter = %d", got)
	}
	if got := reg.CounterValue("serve_jobs_completed_total"); got != 1 {
		t.Fatalf("completed counter = %d", got)
	}
	if got := reg.Gauge("serve_jobs_inflight").Value(); got != 0 {
		t.Fatalf("inflight gauge = %d", got)
	}
	drainStore(t, s)
}

func TestStoreValidation(t *testing.T) {
	s := NewStore(1, 4, instantRunner, nil)
	defer drainStore(t, s)
	bad := []JobSpec{
		{Seed: -1},
		{Workers: -2},
		{Workers: 65},
		{Days: 61},
		{MaxSources: -1},
		{MaxPublishers: -3},
		{Networks: []string{"ok", ""}},
	}
	for _, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("spec %+v must be rejected", spec)
		}
	}
	if _, err := s.Get("job-000001"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rejected specs must not create jobs: %v", err)
	}
}

func TestStoreQueueFull(t *testing.T) {
	br := newBlockingRunner()
	s := NewStore(1, 2, br.run, nil)
	// One running + two queued fills worker and queue. Wait for the
	// worker to dequeue job 1 before filling the queue, so the channel
	// slot it occupied is known-free.
	ids := make([]string, 0, 3)
	v, err := s.Submit(JobSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, v.ID)
	<-br.started // the worker holds job 1; the queue is empty
	for i := 1; i < 3; i++ {
		v, err := s.Submit(JobSpec{Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}
	if _, err := s.Submit(JobSpec{Seed: 9}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	// The rejected submission must not burn an ID.
	v, err = s.Submit(JobSpec{Seed: 4})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("still-full submit err = %v (view %+v)", err, v)
	}
	close(br.release)
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}
	v, err = s.Submit(JobSpec{Seed: 4})
	if err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
	if v.ID != "job-000004" {
		t.Fatalf("rejected submissions leaked IDs: next = %q", v.ID)
	}
	waitState(t, s, v.ID, StateDone)
	drainStore(t, s)
}

func TestStoreCancelRunning(t *testing.T) {
	br := newBlockingRunner()
	reg := obs.New()
	s := NewStore(1, 4, br.run, reg)
	v, err := s.Submit(JobSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-br.started
	waitState(t, s, v.ID, StateRunning)
	if _, err := s.Cancel(v.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	failed := waitState(t, s, v.ID, StateFailed)
	if failed.Error == "" || failed.Error[:10] != "cancelled:" {
		t.Fatalf("cancelled job error = %q, want cancelled: prefix", failed.Error)
	}
	if _, err := s.Cancel(v.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("re-cancel err = %v, want ErrFinished", err)
	}
	if got := reg.CounterValue("serve_jobs_failed_total"); got != 1 {
		t.Fatalf("failed counter = %d", got)
	}
	if rep, state, err := s.Report(v.ID); err != nil || rep != nil || state != StateFailed {
		t.Fatalf("failed job report = %q/%q/%v", rep, state, err)
	}
	drainStore(t, s)
}

func TestStoreCancelQueued(t *testing.T) {
	br := newBlockingRunner()
	reg := obs.New()
	s := NewStore(1, 4, br.run, reg)
	first, _ := s.Submit(JobSpec{Seed: 1})
	<-br.started // worker is parked on job 1
	queued, _ := s.Submit(JobSpec{Seed: 2})
	v, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateFailed || v.Error != "cancelled before start" {
		t.Fatalf("cancelled-queued view = %q/%q", v.State, v.Error)
	}
	close(br.release)
	waitState(t, s, first.ID, StateDone)
	// The worker must skip the cancelled job without re-running it or
	// double-decrementing the inflight gauge.
	if got := reg.Gauge("serve_jobs_inflight").Value(); got != 0 {
		t.Fatalf("inflight gauge = %d after skip", got)
	}
	drainStore(t, s)
}

func TestStoreRunnerErrors(t *testing.T) {
	calls := 0
	runner := func(ctx context.Context, spec JobSpec, onEvent func(JobEvent)) (*JobResult, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("synthetic failure")
		}
		return nil, nil // buggy runner: no result, no error
	}
	s := NewStore(1, 4, runner, nil)
	a, _ := s.Submit(JobSpec{})
	v := waitState(t, s, a.ID, StateFailed)
	if v.Error != "synthetic failure" {
		t.Fatalf("error = %q", v.Error)
	}
	b, _ := s.Submit(JobSpec{})
	v = waitState(t, s, b.ID, StateFailed)
	if v.Error != "runner returned no result" {
		t.Fatalf("nil-result error = %q", v.Error)
	}
	drainStore(t, s)
}

// TestStoreConcurrency floods a 2-worker pool with 12 jobs and checks
// that at most two run at once, everything finishes, and the listing
// stays in submission order. Run under -race this also exercises the
// submit/poll/view paths for data races.
func TestStoreConcurrency(t *testing.T) {
	const jobs = 12
	var mu sync.Mutex
	running, maxRunning := 0, 0
	runner := func(ctx context.Context, spec JobSpec, onEvent func(JobEvent)) (*JobResult, error) {
		mu.Lock()
		running++
		if running > maxRunning {
			maxRunning = running
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		running--
		mu.Unlock()
		return fakeResult(fmt.Sprintf("seed-%d", spec.Seed)), nil
	}
	reg := obs.New()
	s := NewStore(2, jobs, runner, reg)

	var wg sync.WaitGroup
	ids := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.Submit(JobSpec{Seed: int64(i + 1)})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = v.ID
			// Hammer the read paths while workers churn.
			for j := 0; j < 20; j++ {
				_, _ = s.Get(v.ID)
				_ = s.List()
				_ = s.Inflight()
			}
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id != "" {
			waitState(t, s, id, StateDone)
		}
	}
	if maxRunning > 2 {
		t.Fatalf("pool of 2 ran %d jobs concurrently", maxRunning)
	}
	list := s.List()
	if len(list) != jobs {
		t.Fatalf("listed %d jobs, want %d", len(list), jobs)
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Fatalf("listing out of submission order: %q before %q", list[i-1].ID, list[i].ID)
		}
	}
	if got := reg.CounterValue("serve_jobs_completed_total"); got != jobs {
		t.Fatalf("completed counter = %d, want %d", got, jobs)
	}
	drainStore(t, s)
}

func TestStoreDrain(t *testing.T) {
	br := newBlockingRunner()
	s := NewStore(2, 8, br.run, nil)
	a, _ := s.Submit(JobSpec{Seed: 1})
	b, _ := s.Submit(JobSpec{Seed: 2})
	<-br.started
	<-br.started

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	// Drain must flip intake off before the pool empties.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("store never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(JobSpec{Seed: 3}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining err = %v, want ErrDraining", err)
	}
	close(br.release) // in-flight jobs complete normally
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{a.ID, b.ID} {
		if v, _ := s.Get(id); v.State != StateDone {
			t.Fatalf("job %s = %q after graceful drain, want done", id, v.State)
		}
	}
	// Idempotent: a second drain returns immediately.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("re-drain: %v", err)
	}
}

func TestStoreDrainForced(t *testing.T) {
	br := newBlockingRunner()
	s := NewStore(1, 8, br.run, nil)
	running, _ := s.Submit(JobSpec{Seed: 1})
	<-br.started
	queued, _ := s.Submit(JobSpec{Seed: 2})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain err = %v, want DeadlineExceeded", err)
	}
	// Both jobs were cancelled: the running one through its context, the
	// queued one before it started.
	v := waitState(t, s, running.ID, StateFailed)
	if v.Error[:10] != "cancelled:" {
		t.Fatalf("running job error = %q", v.Error)
	}
	v = waitState(t, s, queued.ID, StateFailed)
	if v.Error != "cancelled before start" {
		t.Fatalf("queued job error = %q", v.Error)
	}
}

// TestStoreNoGoroutineLeaks verifies a full submit/run/cancel/drain
// cycle leaves no pool or pipeline goroutines behind.
func TestStoreNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	br := newBlockingRunner()
	s := NewStore(4, 8, br.run, obs.New())
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(JobSpec{Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		<-br.started
	}
	close(br.release)
	drainStore(t, s)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
}
