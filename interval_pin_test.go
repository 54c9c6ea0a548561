package seacma_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro"
)

// intervalPins pins the report digest of seed 2 under reportConfig for
// milk/poll interval pairs other than the paper's 15m/30m (which
// goldenReportDigests covers). The ratios put milking ticks and
// blacklist polls on shared instants, between each other, and on
// either side of a poll, so they pin the tracking timetable's order:
// which sessions a poll sees committed, where commit groups close, and
// where the clock stands at each commit.
var intervalPins = []struct {
	milk, poll time.Duration
	digest     string
}{
	{20 * time.Minute, 30 * time.Minute, "a8457e078d5573da91f0e3cc92aea2f4548fc20d07b65804aa989baad6816065"},
	{30 * time.Minute, 30 * time.Minute, "a33ee4779d3bbe280929db6ff1778dfcb53ec2f17adbb30175b9c264af3f0e8c"},
	{45 * time.Minute, 30 * time.Minute, "6ea0bdd7d7a945f1e2b6d45b189941df69baf42b134834a2e1cdb05da691a667"},
	{15 * time.Minute, 10 * time.Minute, "faa42c86cbd03d5eb8a1fe399b28e9ef46a68bdbde7feb95ff669661192a1bef"},
	{7 * time.Minute, 60 * time.Minute, "d1b8fe77c4924613587e242b28dca75bbb06d5a889051ec6a95b61500ac163aa"},
}

// TestReportIntervalPins runs each pinned interval pair at one worker
// and at four and demands the pinned report bytes from both.
func TestReportIntervalPins(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	for _, pin := range intervalPins {
		for _, w := range []int{1, 4} {
			cfg := reportConfig(2, w)
			cfg.Milker.MilkInterval = pin.milk
			cfg.Milker.GSBInterval = pin.poll
			exp := seacma.NewExperiment(cfg)
			res, err := exp.Run()
			if err != nil {
				t.Fatalf("milk %v poll %v workers %d: %v", pin.milk, pin.poll, w, err)
			}
			sum := sha256.Sum256(serializeReport(t, exp, res.RunResult))
			if got := hex.EncodeToString(sum[:]); got != pin.digest {
				t.Errorf("milk %v poll %v workers %d: report digest %s, pinned %s",
					pin.milk, pin.poll, w, got, pin.digest)
			}
		}
	}
}
