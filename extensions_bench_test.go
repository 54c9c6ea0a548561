package seacma

// Benches for the future-work extensions (DESIGN.md §5 does not list
// them as paper artefacts; they quantify the paper's defensive-use
// claims).

import (
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/parking"
	"repro/internal/phonebl"
	"repro/internal/rng"
	"repro/internal/secamp"
)

// BenchmarkExtension_BlacklistEnrichment measures the protection gained
// by feeding the milking harvest into a fast blacklist, versus GSB alone
// (Sections 1/6: "existing URL blacklists can be enriched").
func BenchmarkExtension_BlacklistEnrichment(b *testing.B) {
	_, res := getBenchRun(b)
	var out EnrichmentOutcome
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = res.MeasureEnrichment(30*time.Minute, 12*time.Hour, 20)
	}
	b.StopTimer()
	b.ReportMetric(100*out.GSBRate(), "gsb-protection-pct")
	b.ReportMetric(100*out.EnrichedRate(), "enriched-protection-pct")
	b.ReportMetric(float64(out.FeedOnlySaves), "visits-saved-by-feed")
}

// BenchmarkExtension_ParkingDetector measures the automated
// parked-domain classifier (the paper's future-work filter) on a
// balanced corpus of parked, SE, and advertiser pages, reporting
// accuracy.
func BenchmarkExtension_ParkingDetector(b *testing.B) {
	src := rng.New(42)
	type sample struct {
		doc    *dom.Document
		parked bool
	}
	var docs []sample
	for i := 0; i < 12; i++ {
		f := secamp.NewBenignFamily("p", secamp.BenignParked, 2, src.Split(string(rune('a'+i))))
		docs = append(docs, sample{f.DocForTest(0), true})
	}
	for i, cat := range secamp.AllCategories {
		tmpl := secamp.NewTemplate(cat, i, src)
		docs = append(docs, sample{tmpl.BuildDoc("http://x.club/l", 3), false})
	}
	for i := 0; i < 6; i++ {
		a := secamp.NewAdvertiser("a", src.Split(string(rune('A'+i))))
		docs = append(docs, sample{a.DocForTest(), false})
	}
	det := parking.NewDetector()
	correct := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		correct = 0
		for _, s := range docs {
			got, _ := det.Classify(s.doc)
			if got == s.parked {
				correct++
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(100*float64(correct)/float64(len(docs)), "accuracy-pct")
}

// BenchmarkExtension_PhoneHarvest measures scam-phone extraction over
// the milking run and reports how many distinct numbers the blacklist
// accumulated.
func BenchmarkExtension_PhoneHarvest(b *testing.B) {
	_, res := getBenchRun(b)
	text := "URGENT! Call Microsoft support at +1-833-555-0147 or 1 (877) 555-0101 now."
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = len(phonebl.Extract(text))
	}
	b.StopTimer()
	if n != 2 {
		b.Fatalf("extraction broken: %d", n)
	}
	if bl := res.ScamPhoneBlacklist(); bl != nil {
		b.ReportMetric(float64(bl.Len()), "scam-numbers-harvested")
	}
}

// BenchmarkExtension_DatasetExport measures exporting the release
// artefacts (campaign index, logs, inventories).
func BenchmarkExtension_DatasetExport(b *testing.B) {
	_, res := getBenchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		sum, err := res.exportDataset(dir, 25, benchLogs)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(sum.Campaigns), "campaigns-exported")
			b.ReportMetric(float64(sum.Domains), "domains-exported")
		}
	}
}
