package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/campstore"
	"repro/internal/obs"
	"repro/internal/phash"
)

// discardWriter is a ResponseWriter that keeps the headers and drops
// the body, so a benchmark counts what the handler spends, not a copy.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { return io.Discard.Write(p) }

// benchmarkServeCampaignsRead serves GET /v1/campaigns through the
// daemon's handler from one world store holding 7 registered campaigns
// of `domains` domains each, built outside the timer. B/op counts what
// one read allocates: an encoder that builds each body in fresh buffers
// allocates in proportion to the body, pooled buffers do not.
// `make bench-check` requires B/op at 2k to stay within 1.5x of B/op
// at 200.
func benchmarkServeCampaignsRead(b *testing.B, domains int) {
	srv := New(Config{Workers: 1, QueueCap: 1, Obs: obs.New()})
	defer drainStore(b, srv.Store())
	st := srv.owner.world("world-1-tiny", true)
	tick := time.Unix(1700000000, 0).UTC()
	for c := 0; c < 7; c++ {
		rep := phash.Hash{Hi: 0x9e3779b97f4a7c15 * uint64(c+1), Lo: 0xbf58476d1ce4e5b9 * uint64(c+1)}
		events := make([]campstore.Event, domains)
		for i := range events {
			events[i] = campstore.Event{Hash: rep.FlipBits(i % 4), E2LD: fmt.Sprintf("c%d-d%05d.example", c, i),
				Tick: tick, Source: campstore.SourceMilk}
		}
		if _, err := st.AppendBatch(events); err != nil {
			b.Fatal(err)
		}
		if err := st.RegisterCampaign(campstore.Campaign{ID: c, Category: "Techsupport",
			RepHash: events[0].Hash, RepE2LD: events[0].E2LD, Attacks: domains}); err != nil {
			b.Fatal(err)
		}
	}
	if got := len(st.LiveCampaigns()[0].Domains); got != domains {
		b.Fatalf("campaign 0 spans %d domains, want %d", got, domains)
	}
	h := srv.Handler()
	req := httptest.NewRequest("GET", "/v1/campaigns", nil)
	w := &discardWriter{h: http.Header{}}
	// One read before the timer grows the pooled body buffer, as a
	// daemon's first read does.
	h.ServeHTTP(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

func BenchmarkServeCampaignsRead_200(b *testing.B) { benchmarkServeCampaignsRead(b, 200) }
func BenchmarkServeCampaignsRead_2k(b *testing.B)  { benchmarkServeCampaignsRead(b, 2000) }
