package campstore

import (
	"fmt"

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

	// view is the campaign's projection as last built, current while
	// its component's aggregate still carries stamp (see refreshView).
	view  CampaignView
	stamp uint64
	built bool
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
	s.setCampaignLocked(c, pid)
	s.publishLocked()
	return nil
}

// CampaignView is one registered campaign projected onto the live
// incremental state.
type CampaignView struct {
	Campaign
	// Domains are the distinct e2LDs of the live cluster containing the
	// representative, sorted. The slice is shared between views and
	// snapshots and must not be modified.
	Domains []string
	// Observations is the number of logged events supporting that
	// cluster's points.
	Observations int
	// Merged is set when another registered campaign now shares the
	// same live cluster (their ε-neighbourhoods grew together).
	Merged bool
}

// LiveCampaigns returns every registered campaign projected onto the
// live view, in ascending campaign id order — served from the
// published snapshot without taking any lock. The returned slice and
// its contents are shared and must not be modified.
func (s *Store) LiveCampaigns() []CampaignView {
	return s.snap.Load().campaigns
}
