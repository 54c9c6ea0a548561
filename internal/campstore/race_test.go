package campstore_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/campstore"
	"repro/internal/phash"
)

// TestConcurrentAppendersAndReaders hammers one store with overlapping
// appenders (so dedup races are exercised) while readers continuously
// snapshot labels, events and campaign projections, then verifies the
// final state against the serial batch oracle. Run under -race by
// `make test-race`.
func TestConcurrentAppendersAndReaders(t *testing.T) {
	s := campstore.New(campstore.Config{})
	rng := rand.New(rand.NewSource(42))
	bases := []phash.Hash{randHash(rng), randHash(rng), randHash(rng)}

	// Build the shared workload: three clusters, with every appender
	// given a shifted copy of the same stream so most events collide.
	var stream []campstore.Event
	for c, base := range bases {
		for i := 0; i < 40; i++ {
			src := campstore.SourceCrawl
			if i%3 == 0 {
				src = campstore.SourceMilk
			}
			stream = append(stream, campstore.Event{
				Hash:   base.FlipBits(rng.Intn(phash.Bits), rng.Intn(phash.Bits)),
				E2LD:   fmt.Sprintf("c%dd%d.example", c, i%7),
				Source: src,
				Tick:   time.Unix(int64(i), 0),
			})
		}
	}

	const appenders = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.LiveLabels()
				s.DiscoveryLabels()
				s.Events(0, 16)
				s.Stats()
				s.LiveCampaigns()
			}
		}()
	}
	var appendWG sync.WaitGroup
	for a := 0; a < appenders; a++ {
		appendWG.Add(1)
		go func(shift int) {
			defer appendWG.Done()
			for i := range stream {
				ev := stream[(i+shift)%len(stream)]
				if _, err := s.Append(ev); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(a * 17)
	}
	appendWG.Wait()
	close(stop)
	wg.Wait()

	// Every appender replayed the same set: dedup must have collapsed
	// them to one copy each.
	if got, want := s.EventCount(), len(stream); got != want {
		t.Fatalf("EventCount = %d, want %d (dedup across concurrent appenders)", got, want)
	}
	// The serial oracle re-clusters both views from scratch in the
	// store's own arrival order and compares labels exactly.
	if err := s.RunOracle(); err != nil {
		t.Fatalf("oracle after concurrent load: %v", err)
	}
	// A full replay afterwards is all duplicates.
	res, err := s.AppendBatch(stream)
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 0 || res.Duplicates != len(stream) {
		t.Fatalf("replay after load: %+v", res)
	}
}

// TestConcurrentBatchAppendersMergeHeavy drives AppendBatch from
// several writers whose tranches keep bridging each other's clusters
// (so edge wiring, count seeding and union-find merges depend on which
// writer gets the lock first), while readers walk /v1/campaigns-style
// projections and Events pagination off the lock-free snapshot. The
// final state is checked against the serial batch oracle, and the test
// asserts the store leaves no goroutines behind.
func TestConcurrentBatchAppendersMergeHeavy(t *testing.T) {
	before := runtime.NumGoroutine()
	s := campstore.New(campstore.Config{})
	rng := rand.New(rand.NewSource(99))

	// Per-appender private streams: appender a owns chains whose left
	// and right halves are ε-connected only through a bridge hash that
	// EVERY appender also replays (shared suffix) — so merges depend on
	// cross-appender arrivals and most bridge hashes collide.
	const appenders = 4
	const chains = 3
	var shared []campstore.Event
	streams := make([][]campstore.Event, appenders)
	for a := 0; a < appenders; a++ {
		for c := 0; c < chains; c++ {
			base := randHash(rng)
			far := base.FlipBits(seqFlips(0, 19)...)   // 20 bits: separate cluster
			bridge := base.FlipBits(seqFlips(0, 9)...) // 10 bits from both
			mk := func(h phash.Hash, dom string) campstore.Event {
				return campstore.Event{Hash: h, E2LD: dom, Source: campstore.SourceCrawl,
					Tick: time.Unix(int64(a*1000+c*100), 0)}
			}
			for i := 0; i < 4; i++ {
				streams[a] = append(streams[a],
					mk(base.FlipBits(120, 100+i), fmt.Sprintf("a%dc%dl%d.example", a, c, i)),
					mk(far.FlipBits(110, 80+i), fmt.Sprintf("a%dc%dr%d.example", a, c, i)))
			}
			shared = append(shared, mk(bridge, fmt.Sprintf("a%dc%dbridge.example", a, c)))
		}
	}

	stop := make(chan struct{})
	var readWG sync.WaitGroup
	for r := 0; r < 3; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			var lastCount, lastLabels int
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The log is append-only: the event count must never
				// regress, and a pagination walk must see contiguous
				// ascending sequence numbers.
				n := s.EventCount()
				if n < lastCount {
					t.Errorf("EventCount regressed: %d -> %d", lastCount, n)
					return
				}
				lastCount = n
				var after uint64
				for {
					page := s.Events(after, 8)
					if len(page) == 0 {
						break
					}
					for _, ev := range page {
						after++
						if ev.Seq != after {
							t.Errorf("pagination: seq %d at position %d", ev.Seq, after)
							return
						}
					}
				}
				// Published snapshots are monotone: a later read never
				// serves fewer points than an earlier one. (LiveLabels
				// and Stats are separate snapshot loads, so they may
				// legitimately disagree with each other mid-ingest.)
				labels, _ := s.LiveLabels()
				if len(labels) < lastLabels {
					t.Errorf("snapshot regressed: %d labels after seeing %d", len(labels), lastLabels)
					return
				}
				lastLabels = len(labels)
				if st := s.Stats(); st.LivePoints > st.Points {
					t.Errorf("inconsistent snapshot: %d live points, %d points", st.LivePoints, st.Points)
					return
				}
				s.LiveCampaigns()
			}
		}()
	}

	var appendWG sync.WaitGroup
	for a := 0; a < appenders; a++ {
		appendWG.Add(1)
		go func(a int) {
			defer appendWG.Done()
			work := append(append([]campstore.Event(nil), streams[a]...), shared...)
			for len(work) > 0 {
				n := 7
				if n > len(work) {
					n = len(work)
				}
				if _, err := s.AppendBatch(work[:n]); err != nil {
					t.Errorf("batch append: %v", err)
					return
				}
				work = work[n:]
			}
		}(a)
	}
	appendWG.Wait()
	close(stop)
	readWG.Wait()

	want := 0
	for a := range streams {
		want += len(streams[a])
	}
	want += len(shared) // every appender replayed it; dedup collapses
	if got := s.EventCount(); got != want {
		t.Fatalf("EventCount = %d, want %d", got, want)
	}
	if st := s.Stats(); st.Merges == 0 {
		t.Fatalf("merge-heavy workload produced no live-view merges: %+v", st)
	}
	if err := s.RunOracle(); err != nil {
		t.Fatalf("oracle after concurrent batch load: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
}
