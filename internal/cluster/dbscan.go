// Package cluster implements the density-based clustering used to group
// SE-attack screenshots into campaigns (paper Section 3.3): DBSCAN over
// (dhash, e2LD) pairs with the normalised Hamming distance between the
// 128-bit dhash values, eps = 0.1 and MinPts = 3, followed by the
// θc-distinct-domain filter implemented in internal/core.
//
// The implementation is generic over the point type so the ablation
// benches can cluster raw hashes, (hash, domain) pairs, or synthetic
// points with the same code path.
package cluster

import (
	"fmt"
	"math"
	"sort"
)

// DistanceFunc measures the distance between two points.
type DistanceFunc[P any] func(a, b P) float64

// Params configures DBSCAN.
type Params struct {
	// Eps is the neighbourhood radius (inclusive: d <= Eps).
	Eps float64
	// MinPts is the minimum neighbourhood size (including the point
	// itself) for a point to be a core point.
	MinPts int
}

// PaperParams are the parameters the paper tunes via pilot experiments.
var PaperParams = Params{Eps: 0.1, MinPts: 3}

// Validate reports whether the parameters are usable: eps must be
// finite and non-negative, MinPts at least 1.
func (p Params) Validate() error {
	if math.IsNaN(p.Eps) || math.IsInf(p.Eps, 0) {
		return fmt.Errorf("cluster: non-finite eps %v", p.Eps)
	}
	if p.Eps < 0 {
		return fmt.Errorf("cluster: negative eps %v", p.Eps)
	}
	if p.MinPts < 1 {
		return fmt.Errorf("cluster: MinPts %d < 1", p.MinPts)
	}
	return nil
}

// Noise is the label assigned to points in no cluster.
const Noise = -1

// Result holds a clustering outcome.
type Result struct {
	// Labels[i] is the cluster id of point i, or Noise.
	Labels []int
	// NumClusters is the number of clusters found (ids are 0..NumClusters-1).
	NumClusters int
	// DistanceCalls counts the pairwise distance computations performed —
	// the clustering cost driver the observability layer reports.
	DistanceCalls int64
}

// Members returns the point indices of cluster id, in ascending order.
func (r Result) Members(id int) []int {
	var out []int
	for i, l := range r.Labels {
		if l == id {
			out = append(out, i)
		}
	}
	return out
}

// Clusters returns all clusters as index slices, ordered by cluster id.
func (r Result) Clusters() [][]int {
	out := make([][]int, r.NumClusters)
	for i, l := range r.Labels {
		if l >= 0 {
			out[l] = append(out[l], i)
		}
	}
	return out
}

// NoisePoints returns the indices labelled Noise.
func (r Result) NoisePoints() []int {
	var out []int
	for i, l := range r.Labels {
		if l == Noise {
			out = append(out, i)
		}
	}
	return out
}

// DBSCAN clusters points with the classic algorithm (Ester et al. 1996).
// It is deterministic: points are seeded in index order and neighbourhood
// expansion proceeds in index order, so the same input always yields the
// same labels.
func DBSCAN[P any](points []P, dist DistanceFunc[P], params Params) (Result, error) {
	if err := params.Validate(); err != nil {
		return Result{}, err
	}
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -2 // unvisited
	}
	var distCalls int64
	neighbours := func(i int) []int {
		var out []int
		for j := 0; j < n; j++ {
			distCalls++
			if dist(points[i], points[j]) <= params.Eps {
				out = append(out, j)
			}
		}
		return out
	}
	next := 0
	for i := 0; i < n; i++ {
		if labels[i] != -2 {
			continue
		}
		nb := neighbours(i)
		if len(nb) < params.MinPts {
			labels[i] = Noise
			continue
		}
		id := next
		next++
		labels[i] = id
		queue := append([]int(nil), nb...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if labels[j] == Noise {
				labels[j] = id // border point reached from a core point
			}
			if labels[j] != -2 {
				continue
			}
			labels[j] = id
			nbj := neighbours(j)
			if len(nbj) >= params.MinPts {
				queue = append(queue, nbj...)
			}
		}
	}
	return Result{Labels: labels, NumClusters: next, DistanceCalls: distCalls}, nil
}

// DBSCANIndexed is DBSCAN with a caller-provided neighbourhood index. The
// index function must return all points within Eps of i (including i).
// Use when a domain-specific index (e.g. the pigeonhole Hamming index in
// this package) makes neighbour queries sub-quadratic.
func DBSCANIndexed(n int, index func(i int) []int, params Params) (Result, error) {
	if err := params.Validate(); err != nil {
		return Result{}, err
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -2
	}
	next := 0
	for i := 0; i < n; i++ {
		if labels[i] != -2 {
			continue
		}
		nb := index(i)
		if len(nb) < params.MinPts {
			labels[i] = Noise
			continue
		}
		id := next
		next++
		labels[i] = id
		queue := append([]int(nil), nb...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if labels[j] == Noise {
				labels[j] = id
			}
			if labels[j] != -2 {
				continue
			}
			labels[j] = id
			nbj := index(j)
			if len(nbj) >= params.MinPts {
				queue = append(queue, nbj...)
			}
		}
	}
	return Result{Labels: labels, NumClusters: next}, nil
}

// Purity evaluates a clustering against ground-truth labels: for each
// cluster the fraction of members carrying the cluster's majority truth
// label, weighted by cluster size. 1.0 means every cluster is pure.
func Purity(labels []int, truth []string) (float64, error) {
	if len(labels) != len(truth) {
		return 0, fmt.Errorf("cluster: %d labels vs %d truth values", len(labels), len(truth))
	}
	counts := map[int]map[string]int{}
	sizes := map[int]int{}
	for i, l := range labels {
		if l == Noise {
			continue
		}
		if counts[l] == nil {
			counts[l] = map[string]int{}
		}
		counts[l][truth[i]]++
		sizes[l]++
	}
	var total, majSum int
	for id, byTruth := range counts {
		maj := 0
		for _, c := range byTruth {
			if c > maj {
				maj = c
			}
		}
		majSum += maj
		total += sizes[id]
	}
	if total == 0 {
		return 0, fmt.Errorf("cluster: no clustered points to evaluate")
	}
	return float64(majSum) / float64(total), nil
}

// Completeness measures, for each ground-truth class, how concentrated its
// members are in a single cluster (noise counts against it), weighted by
// class size.
func Completeness(labels []int, truth []string) (float64, error) {
	if len(labels) != len(truth) {
		return 0, fmt.Errorf("cluster: %d labels vs %d truth values", len(labels), len(truth))
	}
	byClass := map[string]map[int]int{}
	classSize := map[string]int{}
	for i, t := range truth {
		if byClass[t] == nil {
			byClass[t] = map[int]int{}
		}
		byClass[t][labels[i]]++
		classSize[t]++
	}
	var total, majSum int
	for class, byLabel := range byClass {
		maj := 0
		for l, c := range byLabel {
			if l == Noise {
				continue
			}
			if c > maj {
				maj = c
			}
		}
		majSum += maj
		total += classSize[class]
	}
	if total == 0 {
		return 0, fmt.Errorf("cluster: no points to evaluate")
	}
	return float64(majSum) / float64(total), nil
}

// SizeHistogram returns cluster sizes in descending order; handy for
// eyeballing parameter sweeps.
func SizeHistogram(r Result) []int {
	sizes := make([]int, r.NumClusters)
	for _, l := range r.Labels {
		if l >= 0 {
			sizes[l]++
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}
