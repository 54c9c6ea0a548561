package campstore

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/cluster"
	"repro/internal/phash"
)

// oracleCompare re-clusters one view's hash sequence with the batch
// pipeline (cluster.ClusterHashes — a fresh pigeonhole index plus
// deterministic DBSCAN) and compares labels exactly against the
// incremental ones, returning the batch labels. Any divergence is a bug
// in the incremental engine.
func (s *Store) oracleCompare(name string, hashes []phash.Hash, inc []int, n int) ([]int, error) {
	batch, _, err := cluster.ClusterHashes(hashes, s.params)
	if err != nil {
		return nil, fmt.Errorf("campstore oracle: batch recompute (%s view): %w", name, err)
	}
	if n != batch.NumClusters {
		return nil, fmt.Errorf("campstore oracle: %s view has %d incremental clusters, batch found %d",
			name, n, batch.NumClusters)
	}
	for i := range inc {
		if inc[i] != batch.Labels[i] {
			return nil, fmt.Errorf("campstore oracle: %s view point %d labelled %d incrementally, %d by batch",
				name, i, inc[i], batch.Labels[i])
		}
	}
	return batch.Labels, nil
}

// runOracleLocked checks both views' labels at the current commit
// point, then checks the campaign views against a projection of the
// batch live labels. It runs under the writer lock, so the compared
// state is exactly the stream prefix that triggered it.
func (s *Store) runOracleLocked(views []CampaignView) error {
	s.oracleRuns.Add(1)
	s.metOracleRuns.Inc()
	var liveBatch []int
	for v, name := range [numViews]string{viewDiscovery: "discovery", viewLive: "live"} {
		vs := &s.views[v]
		hashes := make([]phash.Hash, len(vs.pts))
		for i, pid := range vs.pts {
			hashes[i] = s.idx.Hash(s.pointHash[pid])
		}
		inc, n := s.labelsLocked(v)
		if n != vs.ncomp {
			return fmt.Errorf("campstore oracle: %s view labels %d clusters, its counter says %d", name, n, vs.ncomp)
		}
		batch, err := s.oracleCompare(name, hashes, inc, n)
		if err != nil {
			return err
		}
		if v == viewLive {
			liveBatch = batch
		}
	}
	want := s.referenceCampaignsLocked(liveBatch)
	if len(views) != len(want) {
		return fmt.Errorf("campstore oracle: %d campaign views, reference has %d", len(views), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(views[i], want[i]) {
			return fmt.Errorf("campstore oracle: campaign %d projects to %d domains, %d observations, merged=%v; reference %d, %d, %v",
				want[i].ID, len(views[i].Domains), views[i].Observations, views[i].Merged,
				len(want[i].Domains), want[i].Observations, want[i].Merged)
		}
	}
	return nil
}

// referenceCampaignsLocked is the projection the live aggregates must
// reproduce, computed from scratch: every registered campaign projected
// onto the live view labelled by labels (one per live point), in
// ascending campaign id order. It scans every live point, so only the
// oracle runs it.
func (s *Store) referenceCampaignsLocked(labels []int) []CampaignView {
	if len(s.live.campaigns) == 0 {
		return nil
	}
	vs := &s.views[viewLive]
	domains := map[int]map[string]bool{}
	events := map[int]int{}
	for vi, pid := range vs.pts {
		l := labels[vi]
		if l == cluster.Noise {
			continue
		}
		d := domains[l]
		if d == nil {
			d = map[string]bool{}
			domains[l] = d
		}
		d[s.pointE2LD[pid]] = true
		events[l] += int(s.pointEvents[pid])
	}
	ids := make([]int, 0, len(s.live.campaigns))
	uses := map[int]int{} // live label -> registered campaigns on it
	for id, rc := range s.live.campaigns {
		ids = append(ids, id)
		if l := labels[vs.idxOf[rc.pid]]; l != cluster.Noise {
			uses[l]++
		}
	}
	sort.Ints(ids)
	out := make([]CampaignView, 0, len(ids))
	for _, id := range ids {
		rc := s.live.campaigns[id]
		cv := CampaignView{Campaign: rc.Campaign}
		cv.ScamPhones = append([]string(nil), rc.ScamPhones...)
		if l := labels[vs.idxOf[rc.pid]]; l != cluster.Noise {
			for d := range domains[l] {
				cv.Domains = append(cv.Domains, d)
			}
			sort.Strings(cv.Domains)
			cv.Observations = events[l]
			cv.Merged = uses[l] > 1
		} else {
			cv.Domains = []string{rc.RepE2LD}
			cv.Observations = int(s.pointEvents[rc.pid])
		}
		out = append(out, cv)
	}
	return out
}

// RunOracle runs the batch-recompute oracle immediately, regardless of
// Config.OracleEvery, against the published snapshot's campaign views
// and labels derived from the committed state. It holds the writer
// lock throughout, so under that lock the published snapshot is the
// committed state. A divergence error poisons the store.
func (s *Store) RunOracle() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.poisonErr(); err != nil {
		return err
	}
	if err := s.runOracleLocked(s.snap.Load().campaigns); err != nil {
		s.poison(err)
		return err
	}
	return nil
}

// OracleRuns returns how many times the oracle has run.
func (s *Store) OracleRuns() int64 { return s.oracleRuns.Load() }
