package campstore

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/phash"
)

// TestOracleCatchesProjectionDivergence corrupts one live aggregate
// behind correct labels and checks that both oracle paths (RunOracle
// and the OracleEvery cadence) report the campaign view that diverged
// and poison the store.
func TestOracleCatchesProjectionDivergence(t *testing.T) {
	for _, every := range []int{0, 1} {
		t.Run(fmt.Sprintf("every%d", every), func(t *testing.T) {
			s := New(Config{OracleEvery: every})
			base := phash.Hash{Hi: 0xfeedface, Lo: 0xbeef}
			for i := 0; i < 4; i++ {
				if _, err := s.Append(Event{Hash: base.FlipBits(i), E2LD: fmt.Sprintf("d%d.example", i), Source: SourceCrawl}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.RegisterCampaign(Campaign{ID: 7, RepHash: base.FlipBits(0), RepE2LD: "d0.example"}); err != nil {
				t.Fatal(err)
			}
			if err := s.RunOracle(); err != nil {
				t.Fatalf("oracle before corruption: %v", err)
			}
			a := s.countedIn(s.pointHash[0])
			if a == nil {
				t.Fatal("representative is not counted in a component")
			}
			a.events += 5
			// A repeat sighting rebuilds the view from the corrupted count.
			_, err := s.Append(Event{Hash: base.FlipBits(1), E2LD: "d1.example", Source: SourceMilk})
			if every == 0 {
				if err != nil {
					t.Fatal(err)
				}
				err = s.RunOracle()
			}
			if err == nil || !strings.Contains(err.Error(), "campaign 7") {
				t.Fatalf("oracle missed the diverged projection: %v", err)
			}
			if _, err := s.Append(Event{Hash: base, E2LD: "late.example"}); err == nil ||
				!strings.Contains(err.Error(), "poisoned") {
				t.Fatalf("store not poisoned after projection divergence: %v", err)
			}
		})
	}
}
