package core

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/campstore"
	"repro/internal/cluster"
	"repro/internal/crawler"
	"repro/internal/obs"
	"repro/internal/parking"
	"repro/internal/phash"
	"repro/internal/phonebl"
)

// DiscoveryParams tune campaign discovery (Section 3.3).
type DiscoveryParams struct {
	// Cluster are the DBSCAN parameters over normalised dhash Hamming
	// distance; the paper tuned eps=0.1, MinPts=3.
	Cluster cluster.Params
	// MinDomains is θc: clusters spanning fewer distinct e2LDs are
	// discarded (the paper sets 5).
	MinDomains int
	// Workers is the parallelism of batch clustering's index probes
	// (the fallback path; default 1). Any value yields identical clusters.
	Workers int
	// Obs receives discovery metrics (observations, DBSCAN distance
	// calls, index probe/candidate counts, cluster and θc-filter
	// counts). Nil = no-op.
	Obs *obs.Registry
	// Store, when non-nil, is the incremental campaign store the run's
	// observations are appended to (as crawl events) and clustered
	// through. A long-lived owner (the seacma-serve daemon) passes one
	// per world so repeat runs pay only for *new* observations; when
	// nil, Discover creates a private store, so the incremental engine
	// is the default clustering path. Labels are identical to the batch
	// path by the campstore property/oracle guarantees.
	Store *campstore.Store
}

// PaperDiscoveryParams are the published values.
var PaperDiscoveryParams = DiscoveryParams{Cluster: cluster.PaperParams, MinDomains: 5}

// Observation is one distinct (dhash, e2LD) pair with its supporting
// landings — the clustering unit of Section 3.3.
type Observation struct {
	Hash phash.Hash
	E2LD string
	// Sessions/Landings index back into the crawl output for triage,
	// attribution and milking.
	Refs []LandingRef
}

// LandingRef addresses one landing within the crawl output.
type LandingRef struct {
	Session int // index into the sessions slice
	Landing int // index into Session.Landings
}

// obsKey identifies one distinct (dhash, e2LD) observation.
type obsKey struct {
	h    phash.Hash
	e2ld string
}

// obsCollector accumulates the distinct (dhash, e2LD) observation
// sequence across sessions, in first-occurrence order. The streaming
// coordinator feeds it one session at a time; CollectObservations feeds
// it a whole crawl. Either way the resulting sequence is identical.
type obsCollector struct {
	index map[obsKey]int
	obs   []Observation
}

func newObsCollector() *obsCollector {
	return &obsCollector{index: map[obsKey]int{}}
}

// addSession folds one session's hashed landings in, returning the
// observations this session introduced (in order) as crawl events —
// exactly the slice of the global event sequence this session appends.
func (c *obsCollector) addSession(si int, s *crawler.Session) []campstore.Event {
	if s == nil {
		return nil
	}
	var events []campstore.Event
	for li, l := range s.Landings {
		if !l.Hashed {
			continue
		}
		k := obsKey{l.Hash, l.E2LD}
		idx, ok := c.index[k]
		if !ok {
			idx = len(c.obs)
			c.index[k] = idx
			c.obs = append(c.obs, Observation{Hash: l.Hash, E2LD: l.E2LD})
			events = append(events, campstore.Event{Hash: l.Hash, E2LD: l.E2LD, Source: campstore.SourceCrawl})
		}
		c.obs[idx].Refs = append(c.obs[idx].Refs, LandingRef{Session: si, Landing: li})
	}
	return events
}

// CollectObservations extracts the distinct (dhash, e2LD) pairs from the
// crawl. Unhashed landings (wedged tabs, direct downloads) are skipped.
func CollectObservations(sessions []*crawler.Session) []Observation {
	c := newObsCollector()
	for si, s := range sessions {
		c.addSession(si, s)
	}
	return c.obs
}

// DiscoveredCampaign is one candidate SEACMA campaign: a visually
// coherent cluster spanning at least θc distinct domains.
type DiscoveredCampaign struct {
	ID int
	// Rep is the representative hash (the first member).
	Rep phash.Hash
	// Members are indices into the observation slice.
	Members []int
	// Domains are the distinct e2LDs.
	Domains []string
	// Category is filled by Triage.
	Category Category
	// Signals summarise the triage evidence.
	Signals TriageSignals
}

// AttackCount returns the total SE-attack instances (landings) behind the
// cluster.
func (d *DiscoveredCampaign) AttackCount(obs []Observation) int {
	n := 0
	for _, m := range d.Members {
		n += len(obs[m].Refs)
	}
	return n
}

// DiscoveryResult is the output of step ⑤.
type DiscoveryResult struct {
	Observations []Observation
	// Clusters are all DBSCAN clusters spanning >= θc domains, SEACMA or
	// not (the paper's 130).
	Clusters []*DiscoveredCampaign
	// NoiseCount is the number of observations clustered as noise.
	NoiseCount int
	// FilteredClusters counts clusters dropped by the θc domain filter.
	FilteredClusters int
	// DistanceCalls is the number of Hamming verifications the
	// neighbourhood index performed during clustering. On the
	// incremental path this counts only the *new* work this run paid
	// for (zero when a shared store had already absorbed every
	// observation).
	DistanceCalls int64
	// Store is the incremental campaign store the run clustered
	// through, with the triaged campaigns registered for live
	// projection; nil when the legacy batch path ran.
	Store *campstore.Store

	// campaigns/benign cache the triage partition; Clusters is immutable
	// after Discover, and callers (reporting, milking, triage tables)
	// re-ask for the partition many times.
	campaignsOnce sync.Once
	campaigns     []*DiscoveredCampaign
	benign        []*DiscoveredCampaign
}

// partition splits Clusters by triage verdict, once.
func (r *DiscoveryResult) partition() {
	r.campaignsOnce.Do(func() {
		for _, c := range r.Clusters {
			if c.Category != CatBenign {
				r.campaigns = append(r.campaigns, c)
			} else {
				r.benign = append(r.benign, c)
			}
		}
	})
}

// Campaigns returns only the clusters triaged as SE campaigns (the
// paper's 108 of 130). The returned slice is shared; do not mutate.
func (r *DiscoveryResult) Campaigns() []*DiscoveredCampaign {
	r.partition()
	return r.campaigns
}

// BenignClusters returns the clusters triaged benign (the paper's 22).
// The returned slice is shared; do not mutate.
func (r *DiscoveryResult) BenignClusters() []*DiscoveredCampaign {
	r.partition()
	return r.benign
}

// discoverIncremental appends the observations to the store as crawl
// events and derives labels from the incremental state. It declines
// (returns false) when the store clusters under different parameters
// or its crawl view is not exactly this run's observation sequence —
// the caller then falls back to the batch path.
func discoverIncremental(st *campstore.Store, obs []Observation, params DiscoveryParams) (cluster.Result, bool) {
	if st.Params() != params.Cluster {
		return cluster.Result{}, false
	}
	events := make([]campstore.Event, len(obs))
	for i, o := range obs {
		events[i] = campstore.Event{Hash: o.Hash, E2LD: o.E2LD, Source: campstore.SourceCrawl}
	}
	br, err := st.AppendBatch(events)
	if err != nil {
		return cluster.Result{}, false
	}
	if !st.DiscoveryMatches(len(obs), func(i int) (phash.Hash, string) {
		return obs[i].Hash, obs[i].E2LD
	}) {
		return cluster.Result{}, false
	}
	labels, n := st.DiscoveryLabels()
	if len(labels) != len(obs) {
		// A concurrent writer slipped crawl events into the shared store
		// between the coherence check and the snapshot read; the labels
		// no longer describe this run's observation sequence.
		return cluster.Result{}, false
	}
	params.Obs.Counter("discovery_index_probes_total").Add(br.Probes)
	params.Obs.Counter("discovery_index_candidates_total").Add(br.Candidates)
	return cluster.Result{Labels: labels, NumClusters: n, DistanceCalls: br.DistanceCalls}, true
}

// Discover runs clustering ⑤ and the θc filter on crawl output, then
// triages each surviving cluster (Section 4.3). Clustering runs
// through the incremental campaign store (params.Store, or a private
// one); batch clustering is the fallback when a shared store is
// unusable for this run.
func Discover(sessions []*crawler.Session, params DiscoveryParams) (*DiscoveryResult, error) {
	if err := params.Cluster.Validate(); err != nil {
		return nil, Errorf("clustering: %v", err)
	}
	obs := CollectObservations(sessions)
	var res cluster.Result
	var store *campstore.Store
	st := params.Store
	if st == nil {
		st = campstore.New(campstore.Config{Params: params.Cluster, Obs: params.Obs})
	}
	if r, ok := discoverIncremental(st, obs, params); ok {
		res, store = r, st
	} else if params.Store != nil {
		params.Obs.Counter("discovery_incremental_fallback_total").Inc()
	}
	if store == nil {
		r, err := clusterBatch(obs, params)
		if err != nil {
			return nil, err
		}
		res = r
	}
	return assembleDiscovery(sessions, obs, res, store, params)
}

// clusterBatch is the from-scratch clustering fallback: a fresh
// pigeonhole index + batch DBSCAN over the full observation sequence.
func clusterBatch(obs []Observation, params DiscoveryParams) (cluster.Result, error) {
	hashes := make([]phash.Hash, len(obs))
	for i, o := range obs {
		hashes[i] = o.Hash
	}
	workers := params.Workers
	if workers < 1 {
		workers = 1
	}
	res, idx, err := cluster.ClusterHashes(hashes, params.Cluster, workers)
	if err != nil {
		return cluster.Result{}, Errorf("clustering: %v", err)
	}
	ist := idx.Stats()
	params.Obs.Counter("discovery_index_probes_total").Add(ist.Probes)
	params.Obs.Counter("discovery_index_candidates_total").Add(ist.Candidates)
	return res, nil
}

// assembleDiscovery is everything downstream of clustering: the θc
// domain filter, triage, stable ordering and campaign registration.
// The per-stage Discover and the streaming coordinator both end here,
// with an identical observation sequence and label assignment — which
// is what makes their DiscoveryResults (and report bytes) identical.
func assembleDiscovery(sessions []*crawler.Session, obs []Observation, res cluster.Result, store *campstore.Store, params DiscoveryParams) (*DiscoveryResult, error) {
	out := &DiscoveryResult{
		Observations:  obs,
		NoiseCount:    len(res.NoisePoints()),
		DistanceCalls: res.DistanceCalls,
		Store:         store,
	}
	distinct := map[phash.Hash]bool{}
	for _, o := range obs {
		distinct[o.Hash] = true
	}
	params.Obs.Counter("discovery_observations_total").Add(int64(len(obs)))
	params.Obs.Counter("discovery_distinct_hashes_total").Add(int64(len(distinct)))
	params.Obs.Counter("discovery_distance_calls_total").Add(res.DistanceCalls)
	params.Obs.Counter("discovery_noise_points_total").Add(int64(out.NoiseCount))
	params.Obs.Counter("discovery_clusters_raw_total").Add(int64(res.NumClusters))
	for id, members := range res.Clusters() {
		domains := map[string]bool{}
		for _, m := range members {
			domains[obs[m].E2LD] = true
		}
		if len(domains) < params.MinDomains {
			out.FilteredClusters++
			continue
		}
		dc := &DiscoveredCampaign{ID: id, Rep: obs[members[0]].Hash, Members: members}
		for d := range domains {
			dc.Domains = append(dc.Domains, d)
		}
		sort.Strings(dc.Domains)
		dc.Signals = gatherSignals(sessions, obs, members)
		dc.Category = classify(dc.Signals)
		out.Clusters = append(out.Clusters, dc)
	}
	// Stable ordering: by descending attack volume, then cluster id.
	// Attack counts are precomputed once — the comparator runs O(n log n)
	// times and AttackCount walks every member.
	attacks := make(map[int]int, len(out.Clusters))
	for _, c := range out.Clusters {
		attacks[c.ID] = c.AttackCount(obs)
	}
	sort.SliceStable(out.Clusters, func(i, j int) bool {
		a, b := attacks[out.Clusters[i].ID], attacks[out.Clusters[j].ID]
		if a != b {
			return a > b
		}
		return out.Clusters[i].ID < out.Clusters[j].ID
	})
	// Register the triaged SE campaigns into the store so live state
	// (milking events, /v1/campaigns) can project them forward. Keyed
	// on cluster id, so a repeat run over a shared store idempotently
	// re-registers the same campaigns.
	if store != nil {
		for _, c := range out.Campaigns() {
			err := store.RegisterCampaign(campstore.Campaign{
				ID:         c.ID,
				Category:   string(c.Category),
				RepHash:    c.Rep,
				RepE2LD:    obs[c.Members[0]].E2LD,
				Attacks:    attacks[c.ID],
				ScamPhones: c.Signals.ScamPhones,
			})
			if err != nil {
				return nil, Errorf("registering campaign %d: %v", c.ID, err)
			}
		}
	}
	params.Obs.Counter("discovery_clusters_filtered_total").Add(int64(out.FilteredClusters))
	params.Obs.Counter("discovery_clusters_kept_total").Add(int64(len(out.Clusters)))
	params.Obs.Counter("discovery_campaigns_se_total").Add(int64(len(out.Campaigns())))
	return out, nil
}

// TriageSignals aggregate the behavioural evidence of a cluster's
// landings — the automated counterpart of the paper's triage methods
// (visual inspection, interaction, source inspection).
type TriageSignals struct {
	Pages               int
	Alerts              int
	BeforeUnload        int
	NotificationRequest int
	Downloads           int
	SignupPopups        int
	MobilePages         int
	DesktopPages        int
	ParkedTitles        int
	ShortenerTitles     int
	EmptyTitles         int
	// ParkedScoreSum accumulates the parked-domain detector's per-page
	// scores; MeanParkedScore() averages them.
	ParkedScoreSum float64
	// ScamPhones are the distinct telephone numbers harvested from the
	// cluster's pages (tech-support scams monetise by phone).
	ScamPhones []string
}

// MeanParkedScore averages the parked-domain detector's score over the
// cluster's pages.
func (sg TriageSignals) MeanParkedScore() float64 {
	if sg.Pages == 0 {
		return 0
	}
	return sg.ParkedScoreSum / float64(sg.Pages)
}

func gatherSignals(sessions []*crawler.Session, obs []Observation, members []int) TriageSignals {
	var sg TriageSignals
	phones := map[string]bool{}
	for _, m := range members {
		for _, ref := range obs[m].Refs {
			l := sessions[ref.Session].Landings[ref.Landing]
			sg.Pages++
			sg.ParkedScoreSum += l.ParkedScore
			for _, p := range phonebl.Extract(l.Title) {
				if !phones[p] {
					phones[p] = true
					sg.ScamPhones = append(sg.ScamPhones, p)
				}
			}
			sg.Alerts += l.Behaviour.Alerts
			if l.Behaviour.BeforeUnload {
				sg.BeforeUnload++
			}
			if l.Behaviour.NotificationRequest {
				sg.NotificationRequest++
			}
			if l.Behaviour.Downloaded || len(l.Downloads) > 0 {
				sg.Downloads++
			}
			if l.Behaviour.OpenedSignup {
				sg.SignupPopups++
			}
			if l.Mobile {
				sg.MobilePages++
			} else {
				sg.DesktopPages++
			}
			title := strings.ToLower(l.Title)
			switch {
			case strings.Contains(title, "domain") && strings.Contains(title, "sale"):
				sg.ParkedTitles++
			case strings.Contains(title, "please wait"):
				sg.ShortenerTitles++
			case title == "":
				sg.EmptyTitles++
			}
		}
	}
	return sg
}

// classify maps triage signals to a category. Thresholds are fractions
// of the cluster's page count; a cluster with no SE signal is benign.
func classify(sg TriageSignals) Category {
	if sg.Pages == 0 {
		return CatBenign
	}
	frac := func(n int) float64 { return float64(n) / float64(sg.Pages) }
	locked := frac(sg.BeforeUnload) > 0.3 || float64(sg.Alerts)/float64(sg.Pages) > 0.5
	switch {
	case frac(sg.NotificationRequest) > 0.3:
		return CatNotifications
	case frac(sg.Downloads) > 0.15 && locked:
		return CatScareware
	case frac(sg.Downloads) > 0.15:
		return CatFakeSoftware
	case locked && frac(sg.MobilePages) <= 0.5:
		return CatTechSupport
	case frac(sg.SignupPopups) > 0.1:
		return CatRegistration
	case frac(sg.MobilePages) > 0.9 && sg.Alerts > 0:
		return CatLottery
	case sg.MeanParkedScore() >= parking.Threshold:
		// Automated parked-domain filtering (the paper's future-work
		// component): placeholder clusters never reach manual triage.
		return CatBenign
	case frac(sg.ParkedTitles) > 0.5, frac(sg.ShortenerTitles) > 0.5, frac(sg.EmptyTitles) > 0.8:
		return CatBenign
	case sg.Alerts > 0 && frac(sg.MobilePages) > 0.5:
		return CatLottery
	default:
		return CatBenign
	}
}
