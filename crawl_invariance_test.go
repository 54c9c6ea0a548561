package seacma_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro"
)

// goldenCrawlDigests pins the SHA-256 of the tiny world's skip-milking
// report per seed. Every crawl worker count must reproduce it: each
// crawl session runs on its own slot of the virtual crawl timeline and
// the synthetic web's draws are keyed to the request, so a report is a
// pure function of (seed, config). A deliberate change to the report
// bytes re-pins these values.
var goldenCrawlDigests = map[int64]string{
	1: "faec3f4d5d078cc011a0c1e8c71d1e13f7549a30fd57b8d54dd498ca1f59b531",
	2: "d334e44298f6912dda1bb58767326caed3b4011d0ee378fa1c89a87324775861",
	3: "5d09b2bc2c68df3f518f09601360fba86358db88e8dc79a2c8692da4ce57fe68",
}

// TestReportInvariantAcrossCrawlWorkers runs the tiny world at crawl
// widths 1, 2, 4 and 8 for three seeds and requires every report to
// match the pinned digest byte for byte. GOMAXPROCS is raised for the
// test so the farm's GOMAXPROCS cap admits every requested width.
func TestReportInvariantAcrossCrawlWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for seed, want := range goldenCrawlDigests {
		for _, workers := range []int{1, 2, 4, 8} {
			cfg := seacma.QuickExperimentConfig()
			cfg.World.Seed = seed
			cfg.SkipMilking = true
			cfg.SetWorkers(workers)
			res, err := seacma.NewExperiment(cfg).Run()
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			var buf bytes.Buffer
			if err := res.Report().WriteJSON(&buf); err != nil {
				t.Fatalf("seed %d workers %d: serialize: %v", seed, workers, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("seed %d workers %d: report digest %s, pinned %s", seed, workers, got, want)
			}
		}
	}
}
