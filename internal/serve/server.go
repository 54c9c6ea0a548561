package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// Server is the HTTP front-end over a job Store.
type Server struct {
	cfg       Config
	store     *Store
	owner     *PipelineOwner // nil when a stub Runner was injected
	mux       *http.ServeMux
	startedAt time.Time
}

// New builds a Server (and its Store). With a nil cfg.Runner the real
// pipeline runner is used, owning one shared capture cache, program
// cache, obs registry and the per-world incremental campaign stores
// for the daemon's lifetime.
func New(cfg Config) *Server {
	runner := cfg.Runner
	var owner *PipelineOwner
	if runner == nil {
		owner = NewPipelineOwner(cfg.Obs)
		owner.OracleEvery = cfg.OracleEvery
		runner = owner.Run
	}
	s := &Server{
		cfg:       cfg,
		store:     NewStore(cfg.Workers, cfg.QueueCap, runner, cfg.Obs),
		owner:     owner,
		mux:       http.NewServeMux(),
		startedAt: time.Now(),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleCampaigns)
	s.mux.HandleFunc("POST /v1/observations", s.handleAppendObservation)
	s.mux.HandleFunc("GET /v1/observations", s.handleListObservations)
	s.mux.HandleFunc("GET /v1/campaigns/{job}/{id}", s.handleCampaign)
	s.mux.HandleFunc("GET /v1/clusters", s.handleClusters)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the API root, ready for http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the job engine (the daemon uses it for drain).
func (s *Server) Store() *Store { return s.store }

// Shutdown drains the store: intake refused with 503, queued and
// running jobs complete (cancelled if ctx expires first).
func (s *Server) Shutdown(ctx context.Context) error {
	return s.store.Drain(ctx)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, apiError{Error: msg})
}

// storeError maps store errors onto HTTP statuses.
func storeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrFinished):
		writeError(w, http.StatusConflict, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

// decodeStrict decodes one JSON value from r into v. It rejects unknown
// fields and anything but whitespace after the value, so a body with a
// second value or trailing junk is refused whole.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, 1<<20), &spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	view, err := s.store.Submit(spec)
	if err != nil {
		storeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+view.ID)
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.store.List()})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	view, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		storeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.store.Cancel(r.PathValue("id"))
	if err != nil {
		storeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	report, state, err := s.store.Report(r.PathValue("id"))
	if err != nil {
		storeError(w, err)
		return
	}
	if report == nil {
		// The job exists but has no report: not finished yet (409 with
		// a Retry-After hint) or failed (410 — it never will).
		if state == StateFailed {
			writeError(w, http.StatusGone, "job failed; no report")
			return
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "job is "+string(state)+"; report not ready")
		return
	}
	// The stored bytes are written verbatim: they are the one-shot CLI
	// serialization, and the byte-identity contract covers them.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(report)
}

// handleJobEvents streams a job's progress as Server-Sent Events. The
// stream opens with a replay — one "phase" event per recorded phase
// mark, plus a "progress" event if crawl commits have been counted —
// then forwards live JobEvents ("phase" on transitions, "progress" on
// per-session crawl ticks) until the job reaches a terminal state,
// which is delivered as a closing "done" event carrying the final job
// view. A finished job replays and closes immediately, so the event
// sequence a late subscriber sees is a prefix-compressed version of
// what a live one saw.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	view, events, unsub, err := s.store.Subscribe(r.PathValue("id"))
	if err != nil {
		storeError(w, err)
		return
	}
	defer unsub()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out immediately: a subscriber to a job with no
		// recorded progress yet would otherwise block on a buffered
		// response while this handler blocks on the event channel.
		flusher.Flush()
	}
	send := func(event string, v any) {
		data, _ := json.Marshal(v)
		_, _ = w.Write([]byte("event: " + event + "\ndata: " + string(data) + "\n\n"))
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Replay: the phases already recorded, then current crawl progress.
	for _, pm := range view.Phases {
		send("phase", JobEvent{Phase: pm.Name})
	}
	if view.SessionsTotal > 0 {
		send("progress", JobEvent{Phase: "crawl", Sessions: view.Sessions, Total: view.SessionsTotal})
	}

	for {
		select {
		case ev, ok := <-events:
			if !ok {
				final, err := s.store.Get(view.ID)
				if err == nil {
					send("done", final)
				}
				return
			}
			if ev.Total > 0 {
				send("progress", ev)
			} else {
				send("phase", ev)
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleCampaigns serves the live incremental view by default: the
// registered campaigns of every world store, projected onto the
// clustering state all appended observations (crawl, milk, API) have
// grown so far. ?world= narrows the live view to one world store and
// ?job= addresses one job's discovery-time summaries instead; with a
// stub runner (no pipeline owner) only the job-scoped view exists. An
// unknown job or world is a 404, not an empty list.
func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var list []CampaignSummary
	job, world := q.Get("job"), q.Get("world")
	switch {
	case job != "" || s.owner == nil:
		if !s.jobExists(w, job) {
			return
		}
		list = s.store.Campaigns(job)
	case world != "":
		st := s.owner.world(world, false)
		if st == nil {
			writeError(w, http.StatusNotFound, "unknown world "+strconv.Quote(world))
			return
		}
		list = LiveCampaignSummaries(world, st)
	default:
		list = s.owner.LiveCampaigns()
	}
	writeAppended(w, func(b []byte) ([]byte, error) {
		return appendCampaignsBody(b, list), nil
	})
}

// jobExists answers 404 and reports false when a job filter names no
// job; an empty filter matches every job.
func (s *Server) jobExists(w http.ResponseWriter, job string) bool {
	if job == "" {
		return true
	}
	if _, err := s.store.Get(job); err != nil {
		storeError(w, err)
		return false
	}
	return true
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "campaign id must be an integer")
		return
	}
	c, err := s.store.Campaign(r.PathValue("job"), id)
	if err != nil {
		storeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, c)
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	job := r.URL.Query().Get("job")
	if !s.jobExists(w, job) {
		return
	}
	list := s.store.Clusters(job)
	if list == nil {
		list = []ClusterSummary{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"clusters": list})
}

// versionInfo is the /v1/version body.
type versionInfo struct {
	Service   string `json:"service"`
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Revision  string `json:"revision,omitempty"`
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	v := versionInfo{
		Service:   "seacma-serve",
		Version:   s.cfg.Version,
		GoVersion: runtime.Version(),
	}
	if v.Version == "" {
		v.Version = "dev"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		v.Module = bi.Main.Path
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				v.Revision = kv.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Obs == nil {
		writeError(w, http.StatusNotFound, "metrics disabled (no registry)")
		return
	}
	if strings.EqualFold(r.URL.Query().Get("format"), "text") {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(s.cfg.Obs.Text()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.cfg.Obs.WriteJSON(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.store.Draining() {
		// Draining reads as unhealthy so load balancers stop routing
		// new work here while in-flight jobs finish.
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"jobs_inflight":  s.store.Inflight(),
		"uptime_seconds": int64(time.Since(s.startedAt).Seconds()),
	})
}
