package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/phash"
	"repro/internal/rng"
)

type pt struct{ x, y float64 }

func euclid(a, b pt) float64 { return math.Hypot(a.x-b.x, a.y-b.y) }

func twoBlobsAndNoise() ([]pt, []string) {
	s := rng.New(1)
	var pts []pt
	var truth []string
	for i := 0; i < 30; i++ {
		pts = append(pts, pt{s.Float64() * 0.5, s.Float64() * 0.5})
		truth = append(truth, "A")
	}
	for i := 0; i < 30; i++ {
		pts = append(pts, pt{10 + s.Float64()*0.5, 10 + s.Float64()*0.5})
		truth = append(truth, "B")
	}
	pts = append(pts, pt{50, 50}, pt{-40, 90})
	truth = append(truth, "noise", "noise")
	return pts, truth
}

func TestDBSCANFindsTwoBlobs(t *testing.T) {
	pts, truth := twoBlobsAndNoise()
	res, err := DBSCAN(pts, euclid, Params{Eps: 1.0, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("clusters = %d, want 2", res.NumClusters)
	}
	noise := res.NoisePoints()
	if len(noise) != 2 {
		t.Fatalf("noise = %v", noise)
	}
	p, err := Purity(res.Labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1.0 {
		t.Fatalf("purity = %v", p)
	}
	comp, err := Completeness(res.Labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if comp < 0.9 {
		t.Fatalf("completeness = %v", comp)
	}
}

func TestDBSCANAllNoiseWhenSparse(t *testing.T) {
	pts := []pt{{0, 0}, {5, 5}, {10, 10}, {15, 15}}
	res, err := DBSCAN(pts, euclid, Params{Eps: 1, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 || len(res.NoisePoints()) != 4 {
		t.Fatalf("res = %+v", res)
	}
}

func TestDBSCANSingleClusterChain(t *testing.T) {
	// A chain of points each within eps of the next must merge into one
	// cluster through density reachability.
	var pts []pt
	for i := 0; i < 20; i++ {
		pts = append(pts, pt{float64(i) * 0.9, 0})
	}
	res, err := DBSCAN(pts, euclid, Params{Eps: 1.0, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Fatalf("clusters = %d", res.NumClusters)
	}
	if len(res.Members(0)) != 20 {
		t.Fatalf("members = %v", res.Members(0))
	}
}

func TestDBSCANBorderPointAdopted(t *testing.T) {
	// Three core points plus one border point within eps of a core point
	// but with a sparse own neighbourhood.
	pts := []pt{{0, 0}, {0.1, 0}, {0.2, 0}, {1.0, 0}}
	res, err := DBSCAN(pts, euclid, Params{Eps: 0.9, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[3] != res.Labels[0] {
		t.Fatalf("border point labelled %d, core %d", res.Labels[3], res.Labels[0])
	}
}

func TestDBSCANDeterministic(t *testing.T) {
	pts, _ := twoBlobsAndNoise()
	r1, err := DBSCAN(pts, euclid, Params{Eps: 1, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := DBSCAN(pts, euclid, Params{Eps: 1, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Labels {
		if r1.Labels[i] != r2.Labels[i] {
			t.Fatalf("labels differ at %d", i)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	for _, eps := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (Params{Eps: eps, MinPts: 3}).Validate(); err == nil {
			t.Fatalf("eps %v accepted", eps)
		}
	}
	if err := (Params{Eps: 0.1, MinPts: 0}).Validate(); err == nil {
		t.Fatal("MinPts 0 accepted")
	}
	if err := PaperParams.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := DBSCAN([]pt{}, euclid, Params{Eps: -1, MinPts: 1}); err == nil {
		t.Fatal("DBSCAN accepted bad params")
	}
	if _, err := DBSCANIndexed(0, nil, Params{MinPts: 0}); err == nil {
		t.Fatal("DBSCANIndexed accepted bad params")
	}
}

func TestPurityErrors(t *testing.T) {
	if _, err := Purity([]int{0}, []string{"a", "b"}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Purity([]int{Noise}, []string{"a"}); err == nil {
		t.Fatal("all-noise accepted")
	}
	if _, err := Completeness([]int{0}, []string{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestPurityMixedCluster(t *testing.T) {
	// One cluster of 4 points: 3 of class A, 1 of class B -> purity 0.75.
	labels := []int{0, 0, 0, 0}
	truth := []string{"A", "A", "A", "B"}
	p, err := Purity(labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.75 {
		t.Fatalf("purity = %v", p)
	}
}

func TestCompletenessSplitClass(t *testing.T) {
	// Class A split across two clusters 3/2 -> completeness 3/5 for A; B
	// intact -> (3+2)/(5+2).
	labels := []int{0, 0, 0, 1, 1, 2, 2}
	truth := []string{"A", "A", "A", "A", "A", "B", "B"}
	c, err := Completeness(labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(3+2) / 7
	if math.Abs(c-want) > 1e-9 {
		t.Fatalf("completeness = %v, want %v", c, want)
	}
}

func TestSizeHistogram(t *testing.T) {
	r := Result{Labels: []int{0, 0, 1, Noise, 1, 1}, NumClusters: 2}
	h := SizeHistogram(r)
	if len(h) != 2 || h[0] != 3 || h[1] != 2 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestClustersAccessor(t *testing.T) {
	r := Result{Labels: []int{1, 0, 1, Noise}, NumClusters: 2}
	cs := r.Clusters()
	if len(cs) != 2 || len(cs[0]) != 1 || cs[0][0] != 1 || len(cs[1]) != 2 {
		t.Fatalf("clusters = %v", cs)
	}
}

// Property: every point within eps of a cluster's core structure shares its
// label; we check the weaker but universal invariant that labels are in
// [-1, NumClusters).
func TestDBSCANLabelRangeProperty(t *testing.T) {
	s := rng.New(3)
	f := func(n uint8) bool {
		count := int(n%40) + 1
		pts := make([]pt, count)
		for i := range pts {
			pts[i] = pt{s.Float64() * 5, s.Float64() * 5}
		}
		res, err := DBSCAN(pts, euclid, Params{Eps: 0.7, MinPts: 3})
		if err != nil {
			return false
		}
		for _, l := range res.Labels {
			if l < Noise || l >= res.NumClusters {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashIndexMatchesBruteForce(t *testing.T) {
	s := rng.New(9)
	// Corpus: 3 template hashes, each with many near-duplicates, plus
	// random noise hashes.
	base := []phash.Hash{
		{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210},
		{Hi: 0xffffffff00000000, Lo: 0x00000000ffffffff},
		{Hi: 0xaaaaaaaaaaaaaaaa, Lo: 0x5555555555555555},
	}
	var hashes []phash.Hash
	for _, b := range base {
		for i := 0; i < 15; i++ {
			h := b
			for f := 0; f < s.Intn(4); f++ {
				h = h.FlipBits(s.Intn(128))
			}
			hashes = append(hashes, h)
		}
	}
	for i := 0; i < 10; i++ {
		hashes = append(hashes, phash.Hash{Hi: uint64(s.Int63()), Lo: uint64(s.Int63())})
	}

	params := PaperParams
	fast, err := DBSCANHashes(hashes, params)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := DBSCAN(hashes, phash.NormDistance, params)
	if err != nil {
		t.Fatal(err)
	}
	if fast.NumClusters != slow.NumClusters {
		t.Fatalf("fast %d clusters vs slow %d", fast.NumClusters, slow.NumClusters)
	}
	// Labels must induce the same partition (ids may permute).
	mapping := map[int]int{}
	for i := range hashes {
		f, sl := fast.Labels[i], slow.Labels[i]
		if (f == Noise) != (sl == Noise) {
			t.Fatalf("point %d: fast %d vs slow %d", i, f, sl)
		}
		if f == Noise {
			continue
		}
		if m, ok := mapping[f]; ok {
			if m != sl {
				t.Fatalf("partition mismatch at %d", i)
			}
		} else {
			mapping[f] = sl
		}
	}
}

func TestHashIndexDistinctCount(t *testing.T) {
	h := phash.Hash{Hi: 1, Lo: 2}
	far := phash.Hash{Hi: ^uint64(0), Lo: ^uint64(0)}
	idx := NewHashNeighbourIndex([]phash.Hash{h, h, h, far}, 0.1)
	if idx.DistinctCount() != 2 {
		t.Fatalf("distinct = %d", idx.DistinctCount())
	}
	nb := idx.Neighbours(0)
	if len(nb) != 3 {
		t.Fatalf("neighbours of dup = %v", nb)
	}
}
