package sessionio

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/webtx"
	"repro/internal/worldgen"
)

var (
	once     sync.Once
	sessions []*crawler.Session
)

func crawlOnce(t *testing.T) []*crawler.Session {
	t.Helper()
	once.Do(func() {
		w := worldgen.Build(worldgen.TinyConfig())
		farm := crawler.New(w.Internet, w.Clock, crawler.Config{Workers: 4, FetchCost: time.Second})
		var tasks []crawler.Task
		for _, p := range w.Publishers[:40] {
			tasks = append(tasks, crawler.Task{Host: p.Host, ClientIP: webtx.IPResidential})
		}
		sessions = farm.CrawlAll(tasks)
	})
	return sessions
}

func TestRoundTripLossless(t *testing.T) {
	in := crawlOnce(t)
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("sessions %d -> %d", len(in), len(out))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.Publisher != b.Publisher || a.UserAgent.Name != b.UserAgent.Name ||
			a.ClientIP != b.ClientIP || a.PublisherOK != b.PublisherOK {
			t.Fatalf("session %d header mismatch", i)
		}
		if len(a.Landings) != len(b.Landings) {
			t.Fatalf("session %d landings %d -> %d", i, len(a.Landings), len(b.Landings))
		}
		for j := range a.Landings {
			la, lb := a.Landings[j], b.Landings[j]
			if la.URL.String() != lb.URL.String() || la.E2LD != lb.E2LD ||
				la.Hash != lb.Hash || la.Hashed != lb.Hashed ||
				la.Behaviour != lb.Behaviour || la.Title != lb.Title ||
				la.ParkedScore != lb.ParkedScore || len(la.Downloads) != len(lb.Downloads) {
				t.Fatalf("session %d landing %d mismatch:\n%+v\nvs\n%+v", i, j, la, lb)
			}
			for k := range la.Downloads {
				if *la.Downloads[k] != *lb.Downloads[k] {
					t.Fatalf("download mismatch")
				}
			}
		}
		if len(a.Events) != len(b.Events) {
			t.Fatalf("session %d events %d -> %d", i, len(a.Events), len(b.Events))
		}
		for j := range a.Events {
			ea, eb := a.Events[j], b.Events[j]
			if ea.Kind != eb.Kind || ea.Tab != eb.Tab || ea.From != eb.From ||
				ea.To != eb.To || ea.Cause != eb.Cause || ea.Detail != eb.Detail ||
				!ea.Time.Equal(eb.Time) {
				t.Fatalf("session %d event %d mismatch:\n%+v\nvs\n%+v", i, j, ea, eb)
			}
			if ea.API.Name != eb.API.Name || ea.API.ScriptURL != eb.API.ScriptURL {
				t.Fatalf("API call mismatch: %+v vs %+v", ea.API, eb.API)
			}
		}
	}
}

func TestOfflineAnalysisEquivalence(t *testing.T) {
	// The whole point: discovery over reloaded sessions gives the same
	// clusters as over live ones.
	in := crawlOnce(t)
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := core.Discover(in, core.PaperDiscoveryParams)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := core.Discover(reloaded, core.PaperDiscoveryParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.Clusters) != len(d2.Clusters) {
		t.Fatalf("clusters %d vs %d", len(d1.Clusters), len(d2.Clusters))
	}
	for i := range d1.Clusters {
		if d1.Clusters[i].Category != d2.Clusters[i].Category ||
			len(d1.Clusters[i].Domains) != len(d2.Clusters[i].Domains) {
			t.Fatalf("cluster %d differs", i)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not json\n",
		`{"format":"other","version":1,"sessions":0}` + "\n",
		`{"format":"seacma-sessions","version":99,"sessions":0}` + "\n",
		`{"format":"seacma-sessions","version":1,"sessions":2}` + "\n" + `{"publisher":"x"}` + "\n",
		`{"format":"seacma-sessions","version":1,"sessions":1}` + "\nnot json\n",
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read accepted %q", c[:min(len(c), 40)])
		}
	}
}

func TestReadRejectsBadHashAndURL(t *testing.T) {
	head := `{"format":"seacma-sessions","version":1,"sessions":1}` + "\n"
	badHash := head + `{"publisher":"p","landings":[{"url":"http://a.com/","hashed":true,"dhash":"zz"}]}` + "\n"
	if _, err := Read(strings.NewReader(badHash)); err == nil {
		t.Fatal("bad hash accepted")
	}
	badURL := head + `{"publisher":"p","landings":[{"url":"::bad::","hashed":false}]}` + "\n"
	if _, err := Read(strings.NewReader(badURL)); err == nil {
		t.Fatal("bad URL accepted")
	}
}

func TestNilSessionTolerated(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []*crawler.Session{nil}); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] == nil {
		t.Fatal("nil session not normalised")
	}
}

func TestUnknownUANamePreserved(t *testing.T) {
	var buf bytes.Buffer
	s := &crawler.Session{Publisher: "p.com", UserAgent: webtx.UserAgent{Name: "custom-ua"}}
	if err := Write(&buf, []*crawler.Session{s}); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].UserAgent.Name != "custom-ua" {
		t.Fatalf("ua = %q", out[0].UserAgent.Name)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// A streaming writer that is handed fewer sessions than its header
// announced fails at Close rather than leaving a file Read rejects.
func TestWriterCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Write(&crawler.Session{Publisher: "p.com"}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err == nil {
		t.Fatal("short stream closed without error")
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("short stream read back without error")
	}
}
