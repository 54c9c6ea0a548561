package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/phash"
	"repro/internal/serve"
)

// Workload names.
const (
	wCrawl  = "crawl"
	wMilk   = "milk"
	wIngest = "ingest"
)

var workloads = []string{wCrawl, wMilk, wIngest}

// crawlMaxPublishers caps the default-scale world's crawl pool so that
// one crawl job fits several times into a run. Crawl and discovery
// remain nearly all of the job.
const crawlMaxPublishers = 300

// milkMaxSources caps the milking sources below the fewest any tiny
// world verifies (30 over seeds 1–30), so every seed milks the same
// number of sources and a job's work does not depend on the seed.
const milkMaxSources = 24

// mix64 is splitmix64's finaliser: it spreads a workload seed and a
// stream id over 64 bits, so nearby seeds give unrelated streams.
func mix64(seed int64, stream uint64) uint64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// milkWorlds is how many worlds a milk run cycles through. Milking work
// follows the world even at a fixed source count (over seeds 301–310 a
// job allocated 526–676 MB, and its time tracked that), so a run's
// median over several worlds depends less on any one of them.
const milkWorlds = 3

// worldSeed maps the benchmark seed to the seed of the run's k-th world.
func worldSeed(seed int64, k int) int64 {
	return int64(mix64(seed, uint64(1+8*k))%(1<<20)) + 1
}

// jobSpecs are the jobs a run of the workload cycles through: one world
// for crawl and ingest, milkWorlds for milk. workers sets the discovery
// width; the crawl always runs one worker (serve.SpecExperimentConfig
// pins it), because crawl output depends on the crawl worker count, and
// jobConfig pins the milker to milkWorkers for the same reason.
func jobSpecs(workload string, seed int64, workers int) []serve.JobSpec {
	n := 1
	if workload == wMilk {
		n = milkWorlds
	}
	specs := make([]serve.JobSpec, n)
	for k := range specs {
		specs[k] = jobSpec(workload, worldSeed(seed, k), workers)
	}
	return specs
}

// jobSpec is the workload's job on one world.
func jobSpec(workload string, world int64, workers int) serve.JobSpec {
	spec := serve.JobSpec{Seed: world, Workers: workers}
	switch workload {
	case wCrawl:
		spec.MaxPublishers = crawlMaxPublishers
		spec.SkipMilking = true
	case wMilk:
		spec.Tiny = true
		spec.Days = 7
		spec.MaxSources = milkMaxSources
	case wIngest:
		// The job that fills the world store the ingest load extends.
		spec.Tiny = true
		spec.SkipMilking = true
	default:
		panic("unknown workload " + workload)
	}
	return spec
}

// Ingest load shape: fixed offered rates, so the event count of a run
// is fixed by --seconds. At 20 seconds a run sends 1,200 batches (4,800
// events) and 1,200 reads, enough for p99s with ten samples beyond.
const (
	ingestBatchSize   = 4
	ingestBatchesPerS = 60
	ingestReadsPerS   = 60
)

// Event kinds of the ingest stream.
const (
	kindNear   = "near"   // a live campaign hash with 1–8 bits flipped, on a fresh e2LD
	kindRandom = "random" // a random hash on a fresh e2LD
	kindRepeat = "repeat" // an exact repeat of an earlier event
)

// ingestEvent is one generated observation.
type ingestEvent struct {
	Kind string
	Hash phash.Hash
	E2LD string
	Tick time.Time
	// Of is the index (into the flattened stream) of the event a repeat
	// copies; -1 otherwise.
	Of int
}

// ingestBase is the virtual time of the first generated tick.
var ingestBase = time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)

// planIngest generates the seeded ingest stream: batches of events, about
// 50% near-duplicates of the live campaign hashes, 30% random hashes and
// 20% exact repeats of events from earlier batches. The same seed and
// live hashes always give the same stream.
func planIngest(seed int64, live []phash.Hash, batches, size int) [][]ingestEvent {
	rng := rand.New(rand.NewSource(int64(mix64(seed, 2) >> 1)))
	tag := mix64(seed, 3) & 0xffffff
	var originals []int // flattened indices of non-repeat events in earlier batches
	out := make([][]ingestEvent, batches)
	n := 0
	for b := range out {
		batch := make([]ingestEvent, size)
		for i := range batch {
			r := rng.Float64()
			fresh := func(kind string, h phash.Hash) ingestEvent {
				return ingestEvent{Kind: kind, Hash: h, Of: -1,
					E2LD: fmt.Sprintf("obs%06d-%06x.example", n, tag),
					Tick: ingestBase.Add(time.Duration(n) * time.Minute)}
			}
			switch {
			case r < 0.2 && len(originals) > 0:
				of := originals[rng.Intn(len(originals))]
				src := out[of/size][of%size]
				batch[i] = ingestEvent{Kind: kindRepeat, Hash: src.Hash, E2LD: src.E2LD, Tick: src.Tick, Of: of}
			case r < 0.7 && len(live) > 0:
				h := live[rng.Intn(len(live))]
				for _, bit := range rng.Perm(phash.Bits)[:1+rng.Intn(8)] {
					if bit < 64 {
						h.Hi ^= 1 << uint(bit)
					} else {
						h.Lo ^= 1 << uint(bit-64)
					}
				}
				batch[i] = fresh(kindNear, h)
			default:
				batch[i] = fresh(kindRandom, phash.Hash{Hi: rng.Uint64(), Lo: rng.Uint64()})
			}
			n++
		}
		out[b] = batch
		for i, ev := range batch {
			if ev.Kind != kindRepeat {
				originals = append(originals, b*size+i)
			}
		}
	}
	return out
}

// kindShares returns the measured share of each event kind.
func kindShares(plan [][]ingestEvent) map[string]float64 {
	counts := map[string]float64{}
	total := 0.0
	for _, b := range plan {
		for _, ev := range b {
			counts[ev.Kind]++
			total++
		}
	}
	for k := range counts {
		counts[k] /= total
	}
	return counts
}
