package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if av, bv := a.Int63(), b.Int63(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split("adnet")
	c2 := root.Split("secamp")
	if c1.Seed() == c2.Seed() {
		t.Fatalf("children share seed %d", c1.Seed())
	}
	// Splitting is order-independent: a fresh root yields identical children.
	root2 := New(7)
	c2b := root2.Split("secamp")
	c1b := root2.Split("adnet")
	if c1.Seed() != c1b.Seed() || c2.Seed() != c2b.Seed() {
		t.Fatal("split seeds depend on call order")
	}
}

func TestSplitDiffersFromParent(t *testing.T) {
	root := New(99)
	child := root.Split("x")
	if child.Seed() == root.Seed() {
		t.Fatal("child seed equals parent seed")
	}
}

func TestIntRange(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		v := s.IntRange(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("IntRange(5,9) = %d", v)
		}
	}
	if got := s.IntRange(3, 3); got != 3 {
		t.Fatalf("IntRange(3,3) = %d", got)
	}
}

func TestIntRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for hi < lo")
		}
	}()
	New(1).IntRange(5, 4)
}

func TestBoolProbability(t *testing.T) {
	s := New(2)
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("Bool(0.25) frequency = %.3f", frac)
	}
}

func TestWeighted(t *testing.T) {
	s := New(3)
	weights := []float64{0, 1, 3, 0}
	counts := make([]int, len(weights))
	for i := 0; i < 40000; i++ {
		counts[s.Weighted(weights)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight index chosen: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.6 || ratio > 3.4 {
		t.Fatalf("weight ratio = %.2f, want ~3", ratio)
	}
}

func TestWeightedPanicsOnAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for all-zero weights")
		}
	}()
	New(1).Weighted([]float64{0, 0})
}

func TestPick(t *testing.T) {
	s := New(4)
	items := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Pick(s, items)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick covered %d of 3 items", len(seen))
	}
}

func TestTokenProperties(t *testing.T) {
	s := New(5)
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		tok := s.Token(n)
		if len(tok) != n {
			return false
		}
		for i := 0; i < len(tok); i++ {
			if tok[i] < 'a' || tok[i] > 'z' {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlnumTokenStartsWithLetter(t *testing.T) {
	s := New(6)
	f := func(nRaw uint8) bool {
		n := int(nRaw%30) + 1
		tok := s.AlnumToken(n)
		if len(tok) != n {
			return false
		}
		c := tok[0]
		return c >= 'a' && c <= 'z'
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.AlnumToken(0); got != "" {
		t.Fatalf("AlnumToken(0) = %q", got)
	}
}

func TestHexToken(t *testing.T) {
	s := New(7)
	tok := s.HexToken(32)
	if len(tok) != 32 {
		t.Fatalf("len = %d", len(tok))
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			t.Fatalf("non-hex byte %q", c)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(8)
	z := s.Zipf(1.2, 1000)
	counts := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		counts[z.Uint64()]++
	}
	if counts[0] <= counts[10] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[10]=%d", counts[0], counts[10])
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(9)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal returned %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(10)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += s.Exp(5)
	}
	mean := sum / float64(n)
	if mean < 4.5 || mean > 5.5 {
		t.Fatalf("Exp(5) mean = %.2f", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(11)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	s := New(12)
	vals := []int{1, 2, 3, 4, 5}
	s.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	sum := 0
	for _, v := range vals {
		sum += v
	}
	if sum != 15 {
		t.Fatalf("elements changed: %v", vals)
	}
}

// TestChildSeedIsFNV1a pins Split's derivation: FNV-1a over the parent
// seed's little-endian bytes, then the name.
func TestChildSeedIsFNV1a(t *testing.T) {
	for _, parent := range []int64{0, 1, -7, 1 << 62} {
		for _, name := range []string{"", "adnet/PopCash", "slot/3/chrome/1/1551398400"} {
			h := fnv.New64a()
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(parent))
			h.Write(buf[:])
			h.Write([]byte(name))
			if got, want := childSeed(parent, name), int64(h.Sum64()); got != want {
				t.Fatalf("childSeed(%d, %q) = %d, want %d", parent, name, got, want)
			}
		}
	}
}

// TestKeyedDeterministicAndIndependent: a keyed stream is a function of
// (parent seed, name) only — rederiving it replays the same draws no
// matter what was drawn in between — and distinct names diverge.
func TestKeyedDeterministicAndIndependent(t *testing.T) {
	root := New(11)
	a := root.Keyed("fill/http://x/?n=0")
	root.Intn(100)
	root.Keyed("other").Int63()
	b := root.Keyed("fill/http://x/?n=0")
	c := root.Keyed("fill/http://x/?n=1")
	differ := 0
	for i := 0; i < 64; i++ {
		av, bv, cv := a.Int63(), b.Int63(), c.Int63()
		if av != bv {
			t.Fatalf("draw %d: rederived keyed stream diverged", i)
		}
		if av != cv {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("distinct keys produced identical streams")
	}
	if p := New(11).Keyed("k").Float64(); p < 0 || p >= 1 {
		t.Fatalf("Float64 = %v", p)
	}
}

// TestKeyedBoolRate: the SplitMix64 backing is unbiased enough for the
// simulator's coin flips.
func TestKeyedBoolRate(t *testing.T) {
	root := New(3)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if root.Keyed(strconv.Itoa(i)).Bool(0.3) {
			hits++
		}
	}
	if rate := float64(hits) / n; rate < 0.28 || rate > 0.32 {
		t.Fatalf("keyed Bool(0.3) rate = %.3f", rate)
	}
}
