package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// processCPU returns the user+system CPU time a process has used so far.
// For the benchmark's own process it uses getrusage (microsecond
// resolution); for a child it reads /proc/<pid>/stat.
func processCPU(pid int) (time.Duration, error) {
	if pid == os.Getpid() {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, err
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// residentMB returns a process's current resident set size in MB.
func residentMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/%d/statm", pid)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

// rssSampler tracks the resident set size of one process over a
// measurement window by sampling it every few milliseconds, so memory
// taken during set-up does not count.
type rssSampler struct {
	pid  int
	stop chan struct{}
	done chan struct{}

	mu          sync.Mutex
	first, last float64
	sum         float64
	n           int
	err         error
}

func startRSS(pid int) *rssSampler {
	r := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	r.sample()
	go func() {
		defer close(r.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.sample()
			}
		}
	}()
	return r
}

func (r *rssSampler) sample() {
	mb, err := residentMB(r.pid)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		if r.err == nil {
			r.err = err
		}
		return
	}
	if r.n == 0 {
		r.first = mb
	}
	r.last = mb
	r.sum += mb
	r.n++
}

// finish stops sampling and returns the mean RSS over the window. The
// mean, unlike the peak, does not depend on where the window ends in
// the garbage collector's cycle.
func (r *rssSampler) finish() (float64, error) {
	r.sample()
	close(r.stop)
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return 0, fmt.Errorf("no RSS samples for pid %d: %v", r.pid, r.err)
	}
	return r.sum / float64(r.n), nil
}
