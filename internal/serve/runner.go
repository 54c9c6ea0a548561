package serve

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/adscript"
	"repro/internal/campstore"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/screenshot"
)

// PipelineOwner is the daemon's long-lived pipeline context: the obs
// registry, the two content-addressed caches shared by every job, and
// one incremental campaign store per world. Sharing the caches is safe
// because both are proven behaviour-invariant (reports are
// byte-identical with them on, off, or shared) and concurrency-safe;
// sharing a world's campaign store is safe because discovery verifies
// the store's crawl view against the run's own observation stream and,
// on any mismatch, re-appends the run into a fresh private store.
type PipelineOwner struct {
	Obs     *obs.Registry
	Capture *screenshot.Cache
	Scripts *adscript.ProgramCache
	// OracleEvery is forwarded to every world store: run the full batch
	// recompute oracle after every N non-duplicate events (0 = never).
	OracleEvery int

	mu     sync.Mutex
	stores map[string]*campstore.Store
}

// NewPipelineOwner builds the shared context, binding both caches to
// the daemon registry so capture_*/script_* metrics aggregate across
// jobs at /metrics.
func NewPipelineOwner(reg *obs.Registry) *PipelineOwner {
	return &PipelineOwner{
		Obs:     reg,
		Capture: screenshot.NewCache(0, reg),
		Scripts: adscript.NewProgramCache(0, reg),
		stores:  map[string]*campstore.Store{},
	}
}

// WorldKey fingerprints the part of a job spec that determines the
// crawl observation stream: seed, world scale, publisher cap and seed
// network filter. Milking knobs (days, max_sources, skip_milking) are
// deliberately excluded — they only change which milk events extend
// the live view, so runs that differ only in them share one store and
// one absorbed clustering state.
func WorldKey(spec JobSpec) string {
	seed := spec.Seed
	if seed <= 0 {
		seed = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "world-%d", seed)
	if spec.Tiny {
		b.WriteString("-tiny")
	}
	if spec.MaxPublishers > 0 {
		fmt.Fprintf(&b, "-p%d", spec.MaxPublishers)
	}
	for _, n := range spec.Networks {
		b.WriteString("-n:")
		b.WriteString(n)
	}
	return b.String()
}

// StoreFor returns the campaign store of the spec's world, creating it
// on first use.
func (o *PipelineOwner) StoreFor(spec JobSpec) *campstore.Store {
	return o.world(WorldKey(spec), true)
}

func (o *PipelineOwner) world(key string, create bool) *campstore.Store {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := o.stores[key]
	if st == nil && create {
		st = campstore.New(campstore.Config{Obs: o.Obs, OracleEvery: o.OracleEvery})
		o.stores[key] = st
	}
	return st
}

// Worlds lists the known world keys, sorted.
func (o *PipelineOwner) Worlds() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	keys := make([]string, 0, len(o.stores))
	for k := range o.stores {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// LiveCampaigns projects the registered campaigns of every world, in
// world key order, onto the live incremental state.
func (o *PipelineOwner) LiveCampaigns() []CampaignSummary {
	var out []CampaignSummary
	for _, k := range o.Worlds() {
		if st := o.world(k, false); st != nil {
			out = append(out, LiveCampaignSummaries(k, st)...)
		}
	}
	return out
}

// LiveCampaignSummaries projects one store's live campaign views onto
// the API summary shape. Keys are world-scoped ("<world>/<id>") since
// live state outlives any single job.
func LiveCampaignSummaries(world string, st *campstore.Store) []CampaignSummary {
	var out []CampaignSummary
	for _, cv := range st.LiveCampaigns() {
		out = append(out, CampaignSummary{
			Key:          fmt.Sprintf("%s/%d", world, cv.ID),
			World:        world,
			ID:           cv.ID,
			Category:     cv.Category,
			Attacks:      cv.Attacks,
			Domains:      cv.Domains,
			RepHash:      cv.RepHash.String(),
			ScamPhones:   cv.ScamPhones,
			Observations: cv.Observations,
			Merged:       cv.Merged,
		})
	}
	return out
}

// SpecExperimentConfig maps a job spec onto the experiment
// configuration, mirroring the seacma-report CLI flag mapping so a
// job's report is byte-identical to `seacma-report -seed N [-tiny]
// -json` at any -workers value. Workers sets the width of every
// parallel stage; each stage's output is independent of it.
func SpecExperimentConfig(spec JobSpec) seacma.ExperimentConfig {
	cfg := seacma.DefaultExperimentConfig()
	if spec.Tiny {
		cfg = seacma.QuickExperimentConfig()
	}
	cfg.World.Seed = spec.Seed
	if cfg.World.Seed <= 0 {
		cfg.World.Seed = 1
	}
	cfg.Milker.MaxSources = 300
	if spec.MaxSources > 0 {
		cfg.Milker.MaxSources = spec.MaxSources
	}
	if spec.Days > 0 {
		cfg.Milker.Duration = time.Duration(spec.Days) * 24 * time.Hour
	}
	cfg.SkipMilking = spec.SkipMilking
	cfg.MaxPublishers = spec.MaxPublishers
	if spec.Workers > 0 {
		cfg.SetWorkers(spec.Workers)
	}
	return cfg
}

// Run executes one job against the shared pipeline context. It is the
// store's production Runner. Jobs run through the streaming pipeline,
// so onEvent carries per-session crawl progress alongside the phase
// transitions.
func (o *PipelineOwner) Run(ctx context.Context, spec JobSpec, onEvent func(JobEvent)) (*JobResult, error) {
	cfg := SpecExperimentConfig(spec)
	cfg.Obs = o.Obs
	cfg.Capture = o.Capture
	cfg.Scripts = o.Scripts
	cfg.Campaigns = o.StoreFor(spec)
	exp := seacma.NewExperiment(cfg)
	if len(spec.Networks) > 0 {
		kept, err := filterSeeds(exp.Pipeline.Cfg.Seeds, spec.Networks)
		if err != nil {
			return nil, err
		}
		exp.Pipeline.Cfg.Seeds = kept
	}
	var onProgress func(seacma.ProgressEvent)
	if onEvent != nil {
		onProgress = func(ev seacma.ProgressEvent) {
			onEvent(JobEvent{Phase: ev.Phase, Sessions: ev.Committed, Total: ev.Total})
		}
	}
	res, err := exp.RunStream(ctx, onProgress)
	if err != nil {
		return nil, err
	}
	return buildJobResult(res)
}

// filterSeeds keeps only the named seed networks, failing on unknown
// names so a typo surfaces as a failed job with a clear reason.
func filterSeeds(seeds []core.SeedNetwork, names []string) ([]core.SeedNetwork, error) {
	byName := make(map[string]core.SeedNetwork, len(seeds))
	for _, s := range seeds {
		byName[s.Name] = s
	}
	var kept []core.SeedNetwork
	for _, n := range names {
		s, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown seed network %q", n)
		}
		kept = append(kept, s)
	}
	return kept, nil
}

// buildJobResult projects a finished run onto what the query endpoints
// retain: the serialized report plus campaign/cluster summaries. The
// heavyweight RunResult (sessions, events) is released afterwards.
func buildJobResult(res *seacma.Result) (*JobResult, error) {
	rep := res.Report()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("serialize report: %w", err)
	}
	out := &JobResult{Report: rep, ReportJSON: buf.Bytes()}
	disc := res.Discovery
	for _, c := range disc.Campaigns() {
		out.Campaigns = append(out.Campaigns, CampaignSummary{
			ID:         c.ID,
			Category:   string(c.Category),
			Attacks:    c.AttackCount(disc.Observations),
			Domains:    append([]string(nil), c.Domains...),
			RepHash:    c.Rep.String(),
			ScamPhones: append([]string(nil), c.Signals.ScamPhones...),
		})
	}
	for _, c := range disc.Clusters {
		out.Clusters = append(out.Clusters, ClusterSummary{
			ID:              c.ID,
			SE:              c.Category != core.CatBenign,
			Category:        string(c.Category),
			Pages:           c.Signals.Pages,
			Domains:         len(c.Domains),
			MeanParkedScore: c.Signals.MeanParkedScore(),
		})
	}
	return out, nil
}

// stampKeys fills the job-scoped keys once the job ID is known.
func (r *JobResult) stampKeys(jobID string) {
	for i := range r.Campaigns {
		r.Campaigns[i].JobID = jobID
		r.Campaigns[i].Key = fmt.Sprintf("%s/%d", jobID, r.Campaigns[i].ID)
	}
	for i := range r.Clusters {
		r.Clusters[i].JobID = jobID
		r.Clusters[i].Key = fmt.Sprintf("%s/%d", jobID, r.Clusters[i].ID)
	}
}
