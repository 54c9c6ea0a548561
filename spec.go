package seacma

import (
	"fmt"
	"time"
)

// Spec is the one description of an experiment run. It is what the
// seacma-crawl, seacma-milk and seacma-report command lines bind their
// -seed, -tiny, -workers, -max and -days flags onto, and it is the
// request body of the seacma-serve daemon's POST /v1/jobs. Validate
// checks it and Config maps it onto an ExperimentConfig, the same way
// for every caller. The zero value is a valid spec: the default world
// at seed 1.
type Spec struct {
	// Seed is the world seed (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// Tiny selects the smoke-scale world (seconds per job) instead of
	// the 1/8-scale default.
	Tiny bool `json:"tiny,omitempty"`
	// Workers parallelizes the crawl, milking and discovery stages
	// (their output is byte-identical for any value; 0 = per-stage
	// defaults).
	Workers int `json:"workers,omitempty"`
	// Days overrides the milking horizon in virtual days (0 = config
	// default: 14 full-scale, 2 tiny).
	Days int `json:"days,omitempty"`
	// MaxSources bounds the milking sources (0 = 300).
	MaxSources int `json:"max_sources,omitempty"`
	// SkipMilking stops after discovery and attribution.
	SkipMilking bool `json:"skip_milking,omitempty"`
	// MaxPublishers bounds the crawl pool (0 = all).
	MaxPublishers int `json:"max_publishers,omitempty"`
	// Networks restricts the analyst seed list to the named ad networks
	// (empty = all seed networks). Config does not carry it: the seed
	// list belongs to the built experiment, and seacma-serve filters it
	// there, failing the job on an unknown name.
	Networks []string `json:"networks,omitempty"`
}

// A SpecError is a Spec field that Validate rejected. Field is the
// field's JSON name, so a caller that bound the field to something
// else, such as a command-line flag, can name that instead.
type SpecError struct {
	Field string
	Msg   string
}

func (e *SpecError) Error() string { return e.Field + " " + e.Msg }

// Validate rejects a spec whose values are out of range, naming the
// first bad field in a *SpecError.
func (s Spec) Validate() error {
	bad := func(field, format string, args ...any) error {
		return &SpecError{Field: field, Msg: fmt.Sprintf(format, args...)}
	}
	switch {
	case s.Seed < 0:
		return bad("seed", "must be >= 0 (got %d)", s.Seed)
	case s.Workers < 0 || s.Workers > 64:
		return bad("workers", "must be in [0,64] (got %d)", s.Workers)
	case s.Days < 0 || s.Days > 60:
		return bad("days", "must be in [0,60] (got %d)", s.Days)
	case s.MaxSources < 0:
		return bad("max_sources", "must be >= 0 (got %d)", s.MaxSources)
	case s.MaxPublishers < 0:
		return bad("max_publishers", "must be >= 0 (got %d)", s.MaxPublishers)
	}
	for _, n := range s.Networks {
		if n == "" {
			return bad("networks", "must not contain empty names")
		}
	}
	return nil
}

// Config maps the spec onto the experiment configuration. A job's
// report is byte-identical to `seacma-report -seed N [-tiny] -json` on
// the same spec, at any worker count: Workers sets the width of every
// parallel stage, and each stage's output is independent of it.
func (s Spec) Config() ExperimentConfig {
	cfg := DefaultExperimentConfig()
	if s.Tiny {
		cfg = QuickExperimentConfig()
	}
	cfg.World.Seed = s.Seed
	if cfg.World.Seed <= 0 {
		cfg.World.Seed = 1
	}
	cfg.Milker.MaxSources = 300
	if s.MaxSources > 0 {
		cfg.Milker.MaxSources = s.MaxSources
	}
	if s.Days > 0 {
		cfg.Milker.Duration = time.Duration(s.Days) * 24 * time.Hour
	}
	cfg.SkipMilking = s.SkipMilking
	cfg.MaxPublishers = s.MaxPublishers
	if s.Workers > 0 {
		cfg.SetWorkers(s.Workers)
	}
	return cfg
}
