package campstore

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/phash"
)

// oracleCompare re-clusters one view's hash sequence with the batch
// pipeline (cluster.ClusterHashes — a fresh pigeonhole index plus
// deterministic DBSCAN) and compares labels exactly against the
// incremental ones. Any divergence is a bug in the incremental engine.
func (s *Store) oracleCompare(name string, hashes []phash.Hash, inc []int, n int) error {
	batch, _, err := cluster.ClusterHashes(hashes, s.params)
	if err != nil {
		return fmt.Errorf("campstore oracle: batch recompute (%s view): %w", name, err)
	}
	if n != batch.NumClusters {
		return fmt.Errorf("campstore oracle: %s view has %d incremental clusters, batch found %d",
			name, n, batch.NumClusters)
	}
	for i := range inc {
		if inc[i] != batch.Labels[i] {
			return fmt.Errorf("campstore oracle: %s view point %d labelled %d incrementally, %d by batch",
				name, i, inc[i], batch.Labels[i])
		}
	}
	return nil
}

// runOracleLocked checks both views at the current commit point; it
// runs inside a commit (under stateMu) so the compared state is exactly
// the stream prefix that triggered the cadence.
func (s *Store) runOracleLocked() error {
	s.oracleRuns.Add(1)
	s.metOracleRuns.Inc()
	for v, name := range [numViews]string{viewDiscovery: "discovery", viewLive: "live"} {
		vs := &s.views[v]
		hashes := make([]phash.Hash, len(vs.pts))
		for i, pid := range vs.pts {
			hashes[i] = s.idx.Hash(s.pointHash[pid])
		}
		inc, n := s.labelsLocked(v)
		if err := s.oracleCompare(name, hashes, inc, n); err != nil {
			return err
		}
	}
	return nil
}

// RunOracle triggers the batch-recompute oracle immediately, regardless
// of Config.OracleEvery, against the published snapshot — it takes no
// store lock, so it can run alongside live ingest (checking the last
// published commit point rather than any in-flight tranche). A
// divergence error poisons the store.
func (s *Store) RunOracle() error {
	if err := s.poisonErr(); err != nil {
		return err
	}
	sn := s.snap.Load()
	s.oracleRuns.Add(1)
	s.metOracleRuns.Inc()
	for _, view := range []struct {
		name   string
		pts    []int32
		labels []int
		n      int
	}{
		{"discovery", sn.discPts, sn.discLabels, sn.discClusters},
		{"live", sn.livePts, sn.liveLabels, sn.liveClusters},
	} {
		hashes := make([]phash.Hash, len(view.pts))
		for i, pid := range view.pts {
			hashes[i] = s.idx.Hash(sn.pointHash[pid])
		}
		if err := s.oracleCompare(view.name, hashes, view.labels, view.n); err != nil {
			s.poison(err)
			return err
		}
	}
	return nil
}

// OracleRuns returns how many times the oracle has run.
func (s *Store) OracleRuns() int64 { return s.oracleRuns.Load() }
