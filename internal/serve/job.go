package serve

import (
	"time"

	"repro"
	"repro/internal/core"
)

// JobSpec is the request body of POST /v1/jobs: the experiment spec
// the CLIs bind their flags onto, validated by seacma.Spec.Validate. It
// is echoed back in job views so a client can always reconstruct what a
// job computed.
type JobSpec = seacma.Spec

// JobState is the lifecycle state of a job.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Finished reports whether the state is terminal.
func (s JobState) Finished() bool { return s == StateDone || s == StateFailed }

// PhaseMark records one pipeline stage transition of a running job. The
// names match the obs span names (reverse, crawl, discover, attribute,
// milk), so progress and the span log correlate.
type PhaseMark struct {
	Name      string    `json:"name"`
	StartedAt time.Time `json:"started_at"`
}

// JobEvent is one progress notification of a running job: a phase
// transition (Sessions == 0) or a per-session crawl commit tick from
// the streaming coordinator. It is both what Runners report and what
// the /v1/jobs/{id}/events SSE stream serializes.
type JobEvent struct {
	Phase string `json:"phase"`
	// Sessions/Total count crawl session slots committed in task order;
	// both are zero on pure phase transitions.
	Sessions int `json:"sessions,omitempty"`
	Total    int `json:"total,omitempty"`
}

// CampaignSummary is the queryable record of one discovered SE
// campaign. Job-scoped summaries (built from a finished job's
// discovery result) carry JobID and a "<job id>/<id>" key; live
// summaries (projected from a world's incremental campaign store)
// carry World, a "<world>/<id>" key, and the live-view extent fields.
type CampaignSummary struct {
	// Key is the global campaign address: "<job id>/<campaign id>" for
	// job-scoped records, "<world key>/<campaign id>" for live ones.
	Key        string   `json:"key"`
	JobID      string   `json:"job_id,omitempty"`
	World      string   `json:"world,omitempty"`
	ID         int      `json:"id"`
	Category   string   `json:"category"`
	Attacks    int      `json:"attacks"`
	Domains    []string `json:"domains"`
	RepHash    string   `json:"rep_hash"`
	ScamPhones []string `json:"scam_phones,omitempty"`
	// Observations counts the logged events supporting the campaign's
	// live cluster; Merged is set when two registered campaigns now
	// share one live cluster. Both are live-view only.
	Observations int  `json:"observations,omitempty"`
	Merged       bool `json:"merged,omitempty"`
}

// ClusterSummary is the queryable record of one cluster, SE or benign.
type ClusterSummary struct {
	Key             string  `json:"key"`
	JobID           string  `json:"job_id"`
	ID              int     `json:"id"`
	SE              bool    `json:"se"`
	Category        string  `json:"category,omitempty"`
	Pages           int     `json:"pages"`
	Domains         int     `json:"domains"`
	MeanParkedScore float64 `json:"mean_parked_score"`
}

// JobResult is everything a completed job retains for the query
// endpoints. The full RunResult (sessions, events, rasters) is
// deliberately dropped once these are built, so a long-lived daemon's
// memory is bounded by report size, not crawl size.
type JobResult struct {
	Report core.Report
	// ReportJSON is the report serialized exactly as the one-shot CLIs
	// write it; the /report endpoint returns these bytes verbatim so
	// the byte-identity contract survives any future handler changes.
	ReportJSON []byte
	Campaigns  []CampaignSummary
	Clusters   []ClusterSummary
}

// Job is one submitted pipeline run. All fields are guarded by the
// owning Store's mutex; handlers read through View snapshots.
type Job struct {
	ID   string
	Spec JobSpec

	state     JobState
	phase     string
	phases    []PhaseMark
	sessions  int // crawl session slots committed so far
	total     int // crawl session slots overall (streaming runs only)
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancelled bool
	cancel    func()
	result    *JobResult

	// subs are the live progress subscribers (SSE handlers). Events are
	// sent non-blocking — a slow consumer loses intermediate ticks, never
	// the terminal close. Channels are closed exactly once, when the job
	// reaches a terminal state.
	subs    map[int]chan JobEvent
	nextSub int
}

// notify fans an event out to subscribers; caller holds the store mutex.
func (j *Job) notify(ev JobEvent) {
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// closeSubs releases every subscriber on terminal state; caller holds
// the store mutex.
func (j *Job) closeSubs() {
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// JobView is the JSON projection of a Job at one instant.
type JobView struct {
	ID     string      `json:"id"`
	State  JobState    `json:"state"`
	Spec   JobSpec     `json:"spec"`
	Phase  string      `json:"phase,omitempty"`
	Phases []PhaseMark `json:"phases,omitempty"`
	// Sessions/SessionsTotal expose streaming crawl progress: committed
	// session slots out of the crawl total (zero until the crawl begins).
	Sessions      int        `json:"sessions,omitempty"`
	SessionsTotal int        `json:"sessions_total,omitempty"`
	Error         string     `json:"error,omitempty"`
	SubmittedAt   time.Time  `json:"submitted_at"`
	StartedAt     *time.Time `json:"started_at,omitempty"`
	FinishedAt    *time.Time `json:"finished_at,omitempty"`
	Campaigns     int        `json:"campaigns,omitempty"`
	Clusters      int        `json:"clusters,omitempty"`
	ReportURL     string     `json:"report_url,omitempty"`
}

// view snapshots the job; caller holds the store mutex.
func (j *Job) view() JobView {
	v := JobView{
		ID:            j.ID,
		State:         j.state,
		Spec:          j.Spec,
		Phase:         j.phase,
		Phases:        append([]PhaseMark(nil), j.phases...),
		Sessions:      j.sessions,
		SessionsTotal: j.total,
		Error:         j.err,
		SubmittedAt:   j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	if j.result != nil {
		v.Campaigns = len(j.result.Campaigns)
		v.Clusters = len(j.result.Clusters)
		v.ReportURL = "/v1/jobs/" + j.ID + "/report"
	}
	return v
}
