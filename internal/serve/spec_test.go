package serve

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro"
)

// TestSpecExperimentConfigPinned pins the experiment configuration of
// the three job shapes seacmabench submits (crawl, milk and ingest):
// the world, crawler, discovery and milker values, the crawl pool bound
// and SkipMilking. Each row's want is the configuration the shape
// mapped to before the spec moved into the root package, spelled out.
func TestSpecExperimentConfigPinned(t *testing.T) {
	const day = 24 * time.Hour
	for _, workers := range []int{0, 1, 2} {
		setWorkers := func(c *seacma.ExperimentConfig) {
			if workers > 0 {
				c.Crawler.Workers, c.Milker.Workers, c.Discovery.Workers = workers, workers, workers
			}
		}
		for _, tc := range []struct {
			name string
			spec JobSpec
			want func() seacma.ExperimentConfig
		}{
			{"crawl", JobSpec{Seed: 7, Workers: workers, MaxPublishers: 300, SkipMilking: true}, func() seacma.ExperimentConfig {
				c := seacma.DefaultExperimentConfig()
				c.World.Seed = 7
				c.Milker.MaxSources = 300
				c.MaxPublishers = 300
				c.SkipMilking = true
				return c
			}},
			{"milk", JobSpec{Seed: 11, Workers: workers, Tiny: true, Days: 7, MaxSources: 24}, func() seacma.ExperimentConfig {
				c := seacma.QuickExperimentConfig()
				c.World.Seed = 11
				c.Milker.MaxSources = 24
				c.Milker.Duration = 7 * day
				return c
			}},
			{"ingest", JobSpec{Seed: 13, Workers: workers, Tiny: true, SkipMilking: true}, func() seacma.ExperimentConfig {
				c := seacma.QuickExperimentConfig()
				c.World.Seed = 13
				c.Milker.MaxSources = 300
				c.SkipMilking = true
				return c
			}},
		} {
			got := SpecExperimentConfig(tc.spec)
			want := tc.want()
			setWorkers(&want)
			if !reflect.DeepEqual(got.World, want.World) {
				t.Errorf("%s W%d: World\n got %+v\nwant %+v", tc.name, workers, got.World, want.World)
			}
			if !reflect.DeepEqual(got.Crawler, want.Crawler) {
				t.Errorf("%s W%d: Crawler\n got %+v\nwant %+v", tc.name, workers, got.Crawler, want.Crawler)
			}
			if !reflect.DeepEqual(got.Discovery, want.Discovery) {
				t.Errorf("%s W%d: Discovery\n got %+v\nwant %+v", tc.name, workers, got.Discovery, want.Discovery)
			}
			if !reflect.DeepEqual(got.Milker, want.Milker) {
				t.Errorf("%s W%d: Milker\n got %+v\nwant %+v", tc.name, workers, got.Milker, want.Milker)
			}
			if got.MaxPublishers != want.MaxPublishers || got.SkipMilking != want.SkipMilking {
				t.Errorf("%s W%d: MaxPublishers/SkipMilking %d/%v, want %d/%v", tc.name, workers,
					got.MaxPublishers, got.SkipMilking, want.MaxPublishers, want.SkipMilking)
			}
		}
	}
}

// FuzzJobSpec: any body POST /v1/jobs decodes and Validate accepts maps
// onto a configuration the pipeline can run — a world seed of at least
// 1 and a milker schedule that passes MilkerConfig.Validate — and no
// step panics.
func FuzzJobSpec(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"seed":3,"tiny":true,"workers":2}`,
		`{"seed":0,"days":60,"max_sources":1,"workers":64}`,
		`{"max_publishers":300,"skip_milking":true,"networks":["adcash"]}`,
		`{"seed":-1}`,
		`{"days":61}`,
		`{"networks":[""]}`,
		`{"seed":1e30}`,
		`{"seed":1} {}`,
		`[]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if decodeStrict(bytes.NewReader(body), &spec) != nil || spec.Validate() != nil {
			return
		}
		cfg := spec.Config()
		if cfg.World.Seed < 1 {
			t.Fatalf("spec %+v: world seed %d", spec, cfg.World.Seed)
		}
		if err := cfg.Milker.Validate(); err != nil {
			t.Fatalf("spec %+v: milker schedule: %v", spec, err)
		}
	})
}

// FuzzObservationBody drives POST /v1/observations with arbitrary
// bodies, each sent as is and wrapped as a one-element batch. On a
// fresh store the handler never panics and never answers 5xx: bad input
// is a 4xx.
func FuzzObservationBody(f *testing.F) {
	const hash = `"0123456789abcdef0123456789abcdef"`
	for _, s := range []string{
		`{"world":"w","hash":` + hash + `,"e2ld":"a.com"}`,
		`{"seed":2,"tiny":true,"hash":` + hash + `,"e2ld":"b.com","tick":"2019-01-02T03:04:05Z","source":"milk"}`,
		`[{"seed":1,"hash":` + hash + `,"e2ld":"a.com"},{"seed":2,"hash":` + hash + `,"e2ld":"a.com"}]`,
		`{"hash":"zz","e2ld":"a.com"}`,
		`{"hash":` + hash + `,"e2ld":""}`,
		`{"hash":` + hash + `,"e2ld":"a.com","source":"crawl"}`,
		`{"hash":` + hash + `,"e2ld":"a.com","networks":["", "x"]}`,
		`[]`,
		`{} {}`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, b := range [][]byte{body, append(append([]byte("["), body...), ']')} {
			srv := New(Config{Workers: 1, QueueCap: 1})
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/observations", bytes.NewReader(b)))
			drainStore(t, srv.Store())
			if rec.Code >= 500 {
				t.Fatalf("body %q: status %d: %s", b, rec.Code, rec.Body)
			}
		}
	})
}
