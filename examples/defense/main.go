// Command defense turns the pipeline's outputs into the defences the
// paper argues for (Sections 1, 4.3 and 6): a fast URL blacklist fed by
// milking, a scam phone-number blacklist, and the released dataset
// artefacts — and quantifies the protection gained over Google Safe
// Browsing alone.
//
//	go run ./examples/defense
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro"
)

func main() {
	log.SetFlags(0)
	cfg := seacma.QuickExperimentConfig()
	exp := seacma.NewExperiment(cfg)
	fmt.Println("running the discovery + milking pipeline ...")
	// The run writes the released dataset as it ends: the crawl keeps
	// the browser logs only for the export.
	dir := "seacma-dataset"
	res, sum, err := exp.RunExport(context.Background(), dir, 10)
	if err != nil {
		log.Println("pipeline or export failed:", err)
		os.Exit(1)
	}
	fmt.Printf("milked %d fresh attack domains from %d sources\n\n",
		len(res.Milking.Domains), res.Milking.Sources)

	// 1. URL blacklist enrichment (Sections 1/6).
	out := res.MeasureEnrichment(30*time.Minute, 12*time.Hour, 15)
	fmt.Println("=== URL blacklist enrichment ===")
	fmt.Printf("victim visits replayed:        %d\n", out.Visits)
	fmt.Printf("blocked by GSB alone:          %.1f%%\n", 100*out.GSBRate())
	fmt.Printf("blocked with the milking feed: %.1f%% (30-minute propagation)\n", 100*out.EnrichedRate())
	fmt.Printf("visits saved by the feed:      %d\n\n", out.FeedOnlySaves)

	// 2. Scam phone blacklist (Section 4.3).
	fmt.Println("=== Scam phone-number blacklist ===")
	bl := res.ScamPhoneBlacklist()
	for _, e := range bl.Entries() {
		fmt.Printf("  %s  first seen %s, %d sightings across %d attack domains\n",
			e.Number, e.FirstSeen.Format("2006-01-02 15:04"), e.Sightings, len(e.Sources))
	}
	fmt.Printf("%d numbers harvested in real time during milking\n\n", bl.Len())

	// 3. Dataset release (Section 4).
	fmt.Println("=== Released dataset ===")
	fmt.Printf("wrote %s/: %d campaigns, %d session logs, %d screenshots,\n",
		dir, sum.Campaigns, sum.SessionLogs, sum.Screenshots)
	fmt.Printf("%d milked domains, %d binaries, %d scam phone numbers\n",
		sum.Domains, sum.Files, sum.Phones)
}
