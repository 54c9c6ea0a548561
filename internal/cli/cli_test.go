package cli

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestProfileDisabledIsNoOp(t *testing.T) {
	ran := false
	if err := (&Output{}).Profile(func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("body did not run")
	}
}

func TestProfileWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	o := &Output{CPUProfile: filepath.Join(dir, "cpu.pprof"), MemProfile: filepath.Join(dir, "mem.pprof")}
	err := o.Profile(func() error {
		// Burn a little CPU and heap so the profiles have content.
		buf := make([]byte, 1<<16)
		for i := range buf {
			buf[i] = byte(i * i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{o.CPUProfile, o.MemProfile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s: empty profile", p)
		}
	}
}

func TestProfileBadPath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "prof")
	ran := false
	if err := (&Output{CPUProfile: bad}).Profile(func() error { ran = true; return nil }); err == nil || !strings.Contains(err.Error(), "cpuprofile") {
		t.Fatalf("unwritable cpu profile path: err = %v", err)
	}
	if ran {
		t.Fatal("body ran although the CPU profile could not start")
	}
	// The allocation profile is written after the body: its failure is
	// the run's error unless the body failed first.
	if err := (&Output{MemProfile: bad}).Profile(func() error { return nil }); err == nil || !strings.Contains(err.Error(), "memprofile") {
		t.Fatalf("unwritable mem profile path: err = %v", err)
	}
	bodyErr := errors.New("body failed")
	if err := (&Output{MemProfile: bad}).Profile(func() error { return bodyErr }); err != bodyErr {
		t.Fatalf("body error lost: %v", err)
	}
}

// parse binds every spec flag on a fresh flag set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := &Flags{}
	f.Bind(fs)
	f.BindMax(fs)
	f.BindDays(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConfigNamesTheFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-seed", "-1"},
		{"-workers", "-1"},
		{"-workers", "65"},
		{"-max", "-2"},
		{"-days", "61"},
		{"-days", "-1"},
	} {
		_, err := parse(t, args...).Config()
		if err == nil {
			t.Errorf("%v accepted", args)
		} else if !strings.HasPrefix(err.Error(), args[0]+" ") {
			t.Errorf("%v: error %q does not start with the flag", args, err)
		}
	}
}

func TestConfigMapsTheSpec(t *testing.T) {
	f := parse(t, "-tiny", "-seed", "0", "-workers", "3", "-max", "40", "-days", "5", "-metrics", "m.json")
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := f.Spec.Config()
	want.Obs = cfg.Obs
	if !reflect.DeepEqual(cfg, want) || cfg.MaxPublishers != 40 {
		t.Fatalf("Config() differs from Spec.Config():\n%+v\n%+v", cfg, want)
	}
	if cfg.World.Seed != 1 {
		t.Fatalf("-seed 0 built world seed %d, want 1", cfg.World.Seed)
	}
	if cfg.Obs == nil {
		t.Fatal("-metrics must allocate a registry")
	}
	if cfg, _ := parse(t).Config(); cfg.Obs != nil || cfg.World.Seed != 1 {
		t.Fatalf("defaults: registry %v, seed %d", cfg.Obs, cfg.World.Seed)
	}
}
