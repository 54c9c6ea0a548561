// Package cli binds the flags the seacma commands share. seacma-crawl,
// seacma-milk and seacma-report bind -seed, -tiny and -workers (and,
// where the command has them, -max and -days) onto one seacma.Spec, so
// a command line is validated and mapped onto the experiment
// configuration exactly as a seacma-serve job spec is. Every command,
// seacma-analyze included, binds -metrics, -cpuprofile and -memprofile
// through Output.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro"
	"repro/internal/obs"
)

// Output is where a command writes its observability snapshot and its
// profiles.
type Output struct {
	Metrics    string
	CPUProfile string
	MemProfile string
}

// Bind registers -metrics, -cpuprofile and -memprofile on fs.
func (o *Output) Bind(fs *flag.FlagSet) {
	fs.StringVar(&o.Metrics, "metrics", "", "write an observability snapshot (JSON) to this file")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write an allocation profile to this file")
}

// Registry returns a fresh registry when -metrics names a file, and nil
// (an uninstrumented run) otherwise.
func (o *Output) Registry() *obs.Registry {
	if o.Metrics == "" {
		return nil
	}
	return obs.New()
}

// WriteMetrics writes reg's snapshot to the -metrics file, if one was
// named, and says so on stderr.
func (o *Output) WriteMetrics(reg *obs.Registry, stderr io.Writer) error {
	if o.Metrics == "" {
		return nil
	}
	if err := reg.WriteFile(o.Metrics); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote metrics snapshot to %s\n", o.Metrics)
	return nil
}

// Profile runs body with the CPU profile recording, then writes the
// allocation profile, whether body failed or not. body's error wins
// over a profile's.
func (o *Output) Profile(body func() error) error {
	var cpu *os.File
	if o.CPUProfile != "" {
		f, err := os.Create(o.CPUProfile)
		if err == nil {
			if err = pprof.StartCPUProfile(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		cpu = f
	}
	err := body()
	if cpu != nil {
		pprof.StopCPUProfile()
		if cerr := cpu.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("cpuprofile: %w", cerr)
		}
	}
	if o.MemProfile != "" {
		if merr := writeAllocs(o.MemProfile); merr != nil && err == nil {
			err = fmt.Errorf("memprofile: %w", merr)
		}
	}
	return err
}

func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle allocation stats before the snapshot
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Flags is a command's experiment spec and its Output.
type Flags struct {
	Output
	Spec seacma.Spec
}

// flagOf names the flag bound to each Spec field a command line can
// set, by the field's JSON name.
var flagOf = map[string]string{
	"seed":           "seed",
	"workers":        "workers",
	"max_publishers": "max",
	"days":           "days",
}

// Bind registers -seed, -tiny and -workers, and the Output flags, on fs.
func (f *Flags) Bind(fs *flag.FlagSet) {
	f.Output.Bind(fs)
	fs.Int64Var(&f.Spec.Seed, "seed", 1, "world seed (0 = 1)")
	fs.BoolVar(&f.Spec.Tiny, "tiny", false, "use the tiny smoke-test world")
	fs.IntVar(&f.Spec.Workers, "workers", 0, "worker count for the parallel stages, at most 64 (0 = per-stage defaults; output is identical for any value)")
}

// BindMax registers -max, the crawl pool bound.
func (f *Flags) BindMax(fs *flag.FlagSet) {
	fs.IntVar(&f.Spec.MaxPublishers, "max", 0, "bound the crawl pool (0 = all)")
}

// BindDays registers -days, the milking horizon.
func (f *Flags) BindDays(fs *flag.FlagSet) {
	fs.IntVar(&f.Spec.Days, "days", 14, "milking horizon in virtual days, at most 60 (paper: 14)")
}

// Config validates the spec, naming a bad field by its flag, and maps
// it onto the experiment configuration, instrumented when -metrics
// names a file.
func (f *Flags) Config() (seacma.ExperimentConfig, error) {
	if err := f.Spec.Validate(); err != nil {
		var se *seacma.SpecError
		if errors.As(err, &se) && flagOf[se.Field] != "" {
			err = fmt.Errorf("-%s %s", flagOf[se.Field], se.Msg)
		}
		return seacma.ExperimentConfig{}, err
	}
	cfg := f.Spec.Config()
	cfg.Obs = f.Registry()
	return cfg, nil
}
