package campstore

import "sort"

// compAgg is the aggregate of one live-view component, kept at its
// union-find root: everything a campaign projected onto the component
// reads. The component's counted points are its core hashes' members
// plus the members of the border hashes placed in it.
type compAgg struct {
	domains   map[string]int32 // e2LD -> counted points carrying it
	events    int              // supporting events of the counted points
	campaigns int              // registered campaigns whose representative is counted here
	// borders lists non-core hashes adjacent to the component. It may
	// hold hashes promoted since and repeats; re-placing either is a
	// no-op.
	borders []int32
	// sorted is the domain set in order, built on first read after a
	// change to the key set and never mutated, so published views share
	// it.
	sorted []string
	// stamp is the store-wide change tick of the aggregate's last
	// change; ticks are unique, so a campaign view built at stamp t is
	// current exactly while its component's aggregate still carries t.
	stamp uint64
}

// add counts n points of domain d and events supporting events.
func (a *compAgg) add(d string, n int32, events int) {
	if a.domains[d] == 0 {
		a.sorted = nil
	}
	a.domains[d] += n
	a.events += events
}

// remove uncounts one point of domain d and its events.
func (a *compAgg) remove(d string, events int) {
	if c := a.domains[d]; c > 1 {
		a.domains[d] = c - 1
	} else {
		delete(a.domains, d)
		a.sorted = nil
	}
	a.events -= events
}

// liveAggs is the live view's per-component campaign state plus the
// registered campaigns and their last built views. It is guarded by the
// store's writer lock.
type liveAggs struct {
	tgt    []int32    // hash id -> core hash its members are counted under (-1 = not counted)
	campOn []int32    // hash id -> registered campaigns whose representative has this hash
	agg    []*compAgg // hash id -> aggregate while the hash is a live root
	tick   uint64     // last change stamp handed out

	campaigns map[int]*registeredCampaign
	ids       []int          // registered campaign ids, ascending
	views     []CampaignView // last built projection, shared with snapshots
}

func (l *liveAggs) wireHash() {
	l.tgt = append(l.tgt, -1)
	l.campOn = append(l.campOn, 0)
	l.agg = append(l.agg, nil)
}

func (l *liveAggs) touch(a *compAgg) {
	l.tick++
	a.stamp = l.tick
}

// countedIn returns the aggregate hash h's live members are counted in,
// or nil when they are noise.
func (s *Store) countedIn(h int32) *compAgg {
	t := s.live.tgt[h]
	if t < 0 {
		return nil
	}
	return s.live.agg[s.views[viewLive].find(t)]
}

// moveHash moves hash h's live members, and the campaigns represented
// on them, from one aggregate to another (nil = not counted).
func (s *Store) moveHash(h int32, from, to *compAgg) {
	vs := &s.views[viewLive]
	for _, vi := range vs.members[h] {
		pid := vs.pts[vi]
		d, ev := s.pointE2LD[pid], int(s.pointEvents[pid])
		if from != nil {
			from.remove(d, ev)
		}
		if to != nil {
			to.add(d, 1, ev)
		}
	}
	c := int(s.live.campOn[h])
	if from != nil {
		from.campaigns -= c
		s.live.touch(from)
	}
	if to != nil {
		to.campaigns += c
		s.live.touch(to)
	}
}

// promoteAgg gives a newly promoted core hash its own aggregate, moving
// its members out of the component they bordered until now.
func (s *Store) promoteAgg(hid int32) {
	a := &compAgg{domains: map[string]int32{}}
	s.moveHash(hid, s.countedIn(hid), a)
	s.live.agg[hid] = a
	s.live.tgt[hid] = hid
}

// mergeAggs folds the aggregate of absorbed root gone into root keep,
// iterating the smaller domain set and border list, then re-places the
// borders of the side whose minimal core index dropped: they may now
// prefer the merged component.
func (s *Store) mergeAggs(keep, gone, lowered int32) {
	recheck := s.live.agg[lowered].borders
	a, b := s.live.agg[keep], s.live.agg[gone]
	if len(a.domains) < len(b.domains) {
		a, b = b, a
	}
	for d, n := range b.domains {
		a.add(d, n, 0)
	}
	a.events += b.events
	a.campaigns += b.campaigns
	if len(a.borders) < len(b.borders) {
		a.borders, b.borders = b.borders, a.borders
	}
	core := s.views[viewLive].core
	for _, h := range b.borders {
		if !core[h] {
			a.borders = append(a.borders, h)
		}
	}
	s.live.agg[keep], s.live.agg[gone] = a, nil
	s.live.touch(a)
	for _, h := range recheck {
		s.placeBorder(h)
	}
}

// addBorder registers a non-core hash that just gained its first live
// member with every adjacent core component, then places it.
func (s *Store) addBorder(h int32) {
	vs := &s.views[viewLive]
	for _, g := range s.adj[h] {
		if !vs.core[g] {
			continue
		}
		a := s.live.agg[vs.find(g)]
		if n := len(a.borders); n == 0 || a.borders[n-1] != h {
			a.borders = append(a.borders, h)
		}
	}
	s.placeBorder(h)
}

// borderNeighbours registers the non-core neighbours of a newly
// promoted core hash with its component and re-places them: the new
// core is a component they border.
func (s *Store) borderNeighbours(hid int32) {
	vs := &s.views[viewLive]
	a := s.live.agg[vs.find(hid)]
	for _, n := range s.adj[hid] {
		if vs.core[n] || len(vs.members[n]) == 0 {
			continue
		}
		a.borders = append(a.borders, n)
		s.placeBorder(n)
	}
}

// placeBorder counts a non-core hash's members in the adjacent core
// component with the smallest minimal core index — batch DBSCAN's first
// expansion into it — or in none when no core is adjacent. A hash
// below MinPts has fewer than MinPts-1 neighbours with live members, so
// this scans O(MinPts) hashes once its tranche has committed.
func (s *Store) placeBorder(h int32) {
	vs := &s.views[viewLive]
	if vs.core[h] || len(vs.members[h]) == 0 {
		return
	}
	best := int32(-1)
	for _, g := range s.adj[h] {
		if !vs.core[g] {
			continue
		}
		if r := vs.find(g); best < 0 || vs.minVi[r] < vs.minVi[best] {
			best = r
		}
	}
	cur := int32(-1)
	if t := s.live.tgt[h]; t >= 0 {
		cur = vs.find(t)
	}
	if cur == best {
		return
	}
	s.moveHash(h, s.aggAt(cur), s.aggAt(best))
	s.live.tgt[h] = best
}

func (s *Store) aggAt(root int32) *compAgg {
	if root < 0 {
		return nil
	}
	return s.live.agg[root]
}

// setCampaignLocked points campaign c at representative point pid,
// replacing any earlier registration under the same id.
func (s *Store) setCampaignLocked(c Campaign, pid int32) {
	l := &s.live
	if old, ok := l.campaigns[c.ID]; ok {
		s.countCampaign(s.pointHash[old.pid], -1)
	} else {
		i := sort.SearchInts(l.ids, c.ID)
		l.ids = append(l.ids, 0)
		copy(l.ids[i+1:], l.ids[i:])
		l.ids[i] = c.ID
	}
	s.countCampaign(s.pointHash[pid], 1)
	l.campaigns[c.ID] = &registeredCampaign{Campaign: c, pid: pid}
}

func (s *Store) countCampaign(h int32, delta int) {
	s.live.campOn[h] += int32(delta)
	if a := s.countedIn(h); a != nil {
		a.campaigns += delta
		s.live.touch(a)
	}
}

// liveCampaignsLocked brings the campaign projection up to date and
// returns it, in ascending campaign id order. Only views whose
// component changed since they were built are rebuilt; when none is,
// the previous slice is returned and stays shared with earlier
// snapshots. Published slices are never mutated.
func (s *Store) liveCampaignsLocked() []CampaignView {
	l := &s.live
	changed := len(l.views) != len(l.ids)
	for _, id := range l.ids {
		if s.refreshView(l.campaigns[id]) {
			changed = true
		}
	}
	if changed {
		views := make([]CampaignView, len(l.ids))
		for i, id := range l.ids {
			views[i] = l.campaigns[id].view
		}
		l.views = views
	}
	return l.views
}

// refreshView rebuilds rc's view if its component changed since the
// view was built, and reports whether it did.
func (s *Store) refreshView(rc *registeredCampaign) bool {
	a := s.countedIn(s.pointHash[rc.pid])
	var stamp uint64 // 0: the representative is noise
	if a != nil {
		stamp = a.stamp
	}
	if rc.built && rc.stamp == stamp && (a != nil || rc.view.Observations == int(s.pointEvents[rc.pid])) {
		return false
	}
	cv := CampaignView{Campaign: rc.Campaign}
	if a != nil {
		if a.sorted == nil {
			a.sorted = make([]string, 0, len(a.domains))
			for d := range a.domains {
				a.sorted = append(a.sorted, d)
			}
			sort.Strings(a.sorted)
		}
		cv.Domains, cv.Observations, cv.Merged = a.sorted, a.events, a.campaigns > 1
	} else {
		// Defensive: a θc-filtered campaign's representative always
		// sits in a live cluster (live counts dominate crawl counts),
		// but degrade to the representative alone rather than panic.
		cv.Domains = []string{rc.RepE2LD}
		cv.Observations = int(s.pointEvents[rc.pid])
	}
	rc.view, rc.stamp, rc.built = cv, stamp, true
	return true
}
