package gsb

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/vclock"
)

// TestConcurrentObserveAndLookup hammers the sharded entry table from
// many goroutines — observations and lookups interleaved on overlapping
// domains — and checks that every domain ends with the same detection
// fate a serial blacklist assigns. Run under -race this is the shard
// index's safety contract for concurrent mints (crawl workers and
// milking probes observing domains while other domains are looked up).
func TestConcurrentObserveAndLookup(t *testing.T) {
	const domains = 200
	const workers = 8
	born := vclock.Epoch
	late := born.Add(365 * 24 * time.Hour)

	concurrent := NewBlacklist(nil, rng.New(7))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < domains; i++ {
				d := fmt.Sprintf("host%d.club", i)
				// Every worker observes every domain (idempotence under
				// contention) and looks it up at a far-future instant.
				concurrent.ObserveMaliciousDomain(d, "tech-support", born)
				concurrent.Lookup(d, late)
				_ = w
			}
		}()
	}
	wg.Wait()

	serial := NewBlacklist(nil, rng.New(7))
	for i := 0; i < domains; i++ {
		d := fmt.Sprintf("host%d.club", i)
		serial.ObserveMaliciousDomain(d, "tech-support", born)
	}

	for i := 0; i < domains; i++ {
		d := fmt.Sprintf("host%d.club", i)
		if got, want := concurrent.Lookup(d, late), serial.Lookup(d, late); got != want {
			t.Fatalf("%s: concurrent verdict %v, serial %v", d, got, want)
		}
		gl, gok := concurrent.DetectionLag(d)
		sl, sok := serial.DetectionLag(d)
		if gok != sok || gl != sl {
			t.Fatalf("%s: lag %v/%v, serial %v/%v", d, gl, gok, sl, sok)
		}
	}
	if got := concurrent.LookupCount(); got < workers*domains {
		t.Fatalf("lookup count %d, want >= %d", got, workers*domains)
	}
	if got, want := len(concurrent.ObservedDomains()), domains; got != want {
		t.Fatalf("observed %d domains, want %d", got, want)
	}
}

// TestShardsSpreadDomains guards against a degenerate shard function:
// a realistic domain population must not collapse into one shard.
func TestShardsSpreadDomains(t *testing.T) {
	b := NewBlacklist(nil, rng.New(9))
	used := map[*shard]bool{}
	for i := 0; i < 256; i++ {
		used[b.shardFor(fmt.Sprintf("host%d.online", i))] = true
	}
	if len(used) < shardCount/2 {
		t.Fatalf("256 domains landed in only %d/%d shards", len(used), shardCount)
	}
}
