package campstore

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/phash"
)

// Campaign is the triage outcome of one discovered campaign, registered
// by discovery so the live view can project it forward: the campaign's
// identity (ID, representative point, category) is fixed at discovery
// time, while its extent (domains, observations) tracks the live
// cluster that contains the representative as milking and API events
// arrive.
type Campaign struct {
	// ID is the discovery-view cluster id.
	ID int
	// Category is the triage verdict (core.Category as a string).
	Category string
	// RepHash and RepE2LD name the representative observation (the
	// cluster's first member at discovery time).
	RepHash phash.Hash
	RepE2LD string
	// Attacks is the SE-attack instance count at discovery time.
	Attacks int
	// ScamPhones are the distinct phone numbers harvested at triage.
	ScamPhones []string
}

type registeredCampaign struct {
	Campaign
	pid int32 // representative point id
}

// RegisterCampaign records (or overwrites, keyed on ID) a discovered
// campaign and republishes the read snapshot so /v1/campaigns reflects
// it immediately. The representative observation must already be in
// the store — discovery appends its events before triage.
func (s *Store) RegisterCampaign(c Campaign) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pid, ok := s.pointIdx[pointKey{c.RepHash, c.RepE2LD}]
	if !ok {
		return fmt.Errorf("campstore: campaign %d representative (%s, %s) not in store",
			c.ID, c.RepHash, c.RepE2LD)
	}
	c.ScamPhones = append([]string(nil), c.ScamPhones...)
	s.campaigns[c.ID] = registeredCampaign{Campaign: c, pid: pid}
	s.publishLocked()
	return nil
}

// CampaignView is one registered campaign projected onto the live
// incremental state.
type CampaignView struct {
	Campaign
	// Domains are the distinct e2LDs of the live cluster containing the
	// representative, sorted.
	Domains []string
	// Observations is the number of logged events supporting that
	// cluster's points.
	Observations int
	// Merged is set when another registered campaign now shares the
	// same live cluster (their ε-neighbourhoods grew together).
	Merged bool
}

// projectCampaignsLocked projects every registered campaign onto the
// live view at snapshot-build time, in ascending campaign id order.
// The result is immutable once published.
func (s *Store) projectCampaignsLocked(labels []int) []CampaignView {
	if len(s.campaigns) == 0 {
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
	ids := make([]int, 0, len(s.campaigns))
	uses := map[int]int{} // live label -> registered campaigns on it
	for id, rc := range s.campaigns {
		ids = append(ids, id)
		if l := labels[vs.idxOf[rc.pid]]; l != cluster.Noise {
			uses[l]++
		}
	}
	sort.Ints(ids)
	out := make([]CampaignView, 0, len(ids))
	for _, id := range ids {
		rc := s.campaigns[id]
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
			// Defensive: a θc-filtered campaign's representative always
			// sits in a live cluster (live counts dominate crawl counts),
			// but degrade to the representative alone rather than panic.
			cv.Domains = []string{rc.RepE2LD}
			cv.Observations = int(s.pointEvents[rc.pid])
		}
		out = append(out, cv)
	}
	return out
}

// LiveCampaigns returns every registered campaign projected onto the
// live view, in ascending campaign id order — served from the
// published snapshot without taking any lock. The returned slice and
// its contents are shared and must not be modified.
func (s *Store) LiveCampaigns() []CampaignView {
	return s.snap.Load().campaigns
}
