package cluster

import "repro/internal/phash"

// HashNeighbourIndex accelerates DBSCAN neighbour queries over perceptual
// hashes. Screenshot corpora contain many exact-duplicate hashes (the same
// SE template rendered on many domains), so the index groups points by
// exact hash and answers neighbourhood queries with one distance
// computation per distinct hash instead of per point.
type HashNeighbourIndex struct {
	hashes    []phash.Hash
	distinct  []phash.Hash
	members   [][]int // members[d] = point indices with distinct hash d
	ofPoint   []int   // ofPoint[i] = index into distinct for point i
	maxBits   int     // eps expressed in raw bits
	distCalls int64   // Hamming distance computations performed
}

// NewHashNeighbourIndex builds an index for the given hashes and a
// normalised eps (fraction of 128 bits).
func NewHashNeighbourIndex(hashes []phash.Hash, eps float64) *HashNeighbourIndex {
	idx := &HashNeighbourIndex{
		hashes:  hashes,
		ofPoint: make([]int, len(hashes)),
		maxBits: int(eps * float64(phash.Bits)),
	}
	seen := map[phash.Hash]int{}
	for i, h := range hashes {
		d, ok := seen[h]
		if !ok {
			d = len(idx.distinct)
			seen[h] = d
			idx.distinct = append(idx.distinct, h)
			idx.members = append(idx.members, nil)
		}
		idx.ofPoint[i] = d
		idx.members[d] = append(idx.members[d], i)
	}
	return idx
}

// Neighbours returns all point indices within eps of point i, including i.
func (idx *HashNeighbourIndex) Neighbours(i int) []int {
	h := idx.distinct[idx.ofPoint[i]]
	var out []int
	idx.distCalls += int64(len(idx.distinct))
	for d, other := range idx.distinct {
		if phash.Distance(h, other) <= idx.maxBits {
			out = append(out, idx.members[d]...)
		}
	}
	return out
}

// DistinctCount reports the number of distinct hashes in the corpus.
func (idx *HashNeighbourIndex) DistinctCount() int { return len(idx.distinct) }

// DistanceCalls reports the Hamming distance computations performed so
// far (one per distinct hash per neighbourhood query).
func (idx *HashNeighbourIndex) DistanceCalls() int64 { return idx.distCalls }

// DBSCANHashes clusters perceptual hashes with the paper's metric
// (normalised Hamming distance). Neighbour queries go through the
// pigeonhole index (DynamicIndex) instead of scanning every distinct
// hash; ClusterHashes exposes the same path with the index returned for
// its statistics.
func DBSCANHashes(hashes []phash.Hash, params Params) (Result, error) {
	res, _, err := ClusterHashes(hashes, params)
	return res, err
}

// ClusterHashes batch-clusters perceptual hashes through a DynamicIndex:
// it claims and registers every distinct hash in first-appearance order,
// probes each distinct hash once, and runs DBSCANIndexed over the
// resulting neighbourhoods. It is the campaign store's oracle and the
// reference the incremental engine is tested against. The index is
// returned for stats introspection. Concurrent calls share only the
// package's pooled probe scratch.
func ClusterHashes(hashes []phash.Hash, params Params) (Result, *DynamicIndex, error) {
	if err := params.Validate(); err != nil {
		return Result{}, nil, err
	}
	x := NewDynamicIndex(params.Eps)
	ofPoint := make([]int32, len(hashes))
	var members [][]int // members[d] = point indices with distinct hash d
	for i, h := range hashes {
		d, isNew := x.Claim(h)
		if isNew {
			x.Register(d, h)
			members = append(members, nil)
		}
		ofPoint[i] = d
		members[d] = append(members[d], i)
	}

	// nbhd[d] = point indices within eps of distinct hash d, itself
	// included (probing with self = -1 verifies and returns d too).
	nbhd := make([][]int, len(members))
	for d := range members {
		ids, _ := x.ProbeNeighbours(x.Hash(int32(d)), -1)
		n := 0
		for _, cd := range ids {
			n += len(members[cd])
		}
		pts := make([]int, 0, n)
		for _, cd := range ids {
			pts = append(pts, members[cd]...)
		}
		nbhd[d] = pts
	}

	res, err := DBSCANIndexed(len(hashes), func(i int) []int { return nbhd[ofPoint[i]] }, params)
	res.DistanceCalls = x.DistanceCalls()
	return res, x, err
}

// DBSCANHashesFlat is the previous clustering path — one distance
// computation per distinct hash per query — kept for ablations and as
// the reference implementation the index is tested against.
func DBSCANHashesFlat(hashes []phash.Hash, params Params) (Result, error) {
	idx := NewHashNeighbourIndex(hashes, params.Eps)
	res, err := DBSCANIndexed(len(hashes), idx.Neighbours, params)
	res.DistanceCalls = idx.DistanceCalls()
	return res, err
}
