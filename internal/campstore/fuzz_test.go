package campstore_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/campstore"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/phash"
)

// Fuzz encoding: the input is a sequence of 18-byte records, each one
// observation event.
//
//	[0:16]  hash (big-endian Hi, Lo)
//	[16]    e2LD selector (mod 10)
//	[17]    flags: bit0 = milk source (else crawl)
//	               bit1 = derive the hash from the previous event's by
//	                      flipping two positions taken from bytes 0-1
//	                      (guarantees ε-density whatever the corpus)
//	               bit2 = reuse the previous tick (exercises dedup)
//
// The fuzzer mutates corpus entries freely; the derive flag means even
// random mutations keep producing near-duplicate hashes that land
// within eps of each other, which is where merges and promotions live.
const fuzzRecordSize = 18

func decodeFuzzStream(data []byte) []campstore.Event {
	var evs []campstore.Event
	prev := phash.Hash{}
	tick := int64(0)
	for len(data) >= fuzzRecordSize && len(evs) < 256 {
		rec := data[:fuzzRecordSize]
		data = data[fuzzRecordSize:]
		h := phash.Hash{Hi: binary.BigEndian.Uint64(rec[0:8]), Lo: binary.BigEndian.Uint64(rec[8:16])}
		if rec[17]&2 != 0 {
			h = prev.FlipBits(int(rec[0])%phash.Bits, int(rec[1])%phash.Bits)
		}
		prev = h
		src := campstore.SourceCrawl
		if rec[17]&1 != 0 {
			src = campstore.SourceMilk
		}
		if rec[17]&4 == 0 {
			tick++
		}
		evs = append(evs, campstore.Event{
			Hash:   h,
			E2LD:   fmt.Sprintf("site%d.example", rec[16]%10),
			Source: src,
			Tick:   time.Unix(tick, 0),
		})
	}
	return evs
}

func encodeFuzzRecord(h phash.Hash, dom, flags byte) []byte {
	rec := make([]byte, fuzzRecordSize)
	binary.BigEndian.PutUint64(rec[0:8], h.Hi)
	binary.BigEndian.PutUint64(rec[8:16], h.Lo)
	rec[16], rec[17] = dom, flags
	return rec
}

// worldgenCorpus runs the tiny-world crawl once and encodes its real
// observations — the (dhash, e2LD) pairs the paper pipeline actually
// clusters — as fuzz seed records.
var worldgenCorpus = sync.OnceValue(func() [][]byte {
	cfg := seacma.QuickExperimentConfig()
	cfg.SkipMilking = true
	cfg.MaxPublishers = 24
	res, err := seacma.NewExperiment(cfg).Run()
	if err != nil {
		return nil
	}
	obs := core.CollectObservations(res.Sessions)
	var out [][]byte
	var stream []byte
	for i, o := range obs {
		if i >= 48 {
			break
		}
		rec := encodeFuzzRecord(o.Hash, byte(i), byte(i%2))
		out = append(out, rec)
		stream = append(stream, rec...)
	}
	if len(stream) > 0 {
		out = append(out, stream)
	}
	return out
})

// FuzzIncrementalLabels feeds arbitrary event streams — seeded from
// real worldgen crawl observations — through the incremental engine and
// asserts, via the batch-recompute oracle, that both views' labels are
// identical to a from-scratch DBSCAN over the same arrival order.
func FuzzIncrementalLabels(f *testing.F) {
	for _, seed := range worldgenCorpus() {
		f.Add(seed)
	}
	// Synthetic seeds: one dense chain (every hash 2 flips from the
	// previous), one crawl/milk alternation with dedup pressure.
	base := phash.Hash{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	var chain, alt []byte
	for i := 0; i < 24; i++ {
		chain = append(chain, encodeFuzzRecord(base.FlipBits(i, i+1), byte(i), 2)...)
		alt = append(alt, encodeFuzzRecord(base.FlipBits(i%5), byte(i%3), byte(i%8))...)
	}
	f.Add(chain)
	f.Add(alt)

	f.Fuzz(func(t *testing.T, data []byte) {
		evs := decodeFuzzStream(data)
		if len(evs) == 0 {
			return
		}
		s := campstore.New(campstore.Config{Params: cluster.PaperParams})
		for i, ev := range evs {
			if _, err := s.Append(ev); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		if err := s.RunOracle(); err != nil {
			t.Fatalf("incremental labels diverged from batch: %v", err)
		}
	})
}
