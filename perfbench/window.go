package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A run sets its workload up at least setupMinRepeats times and until
// setupMinSeconds have passed (at most setupMaxRepeats times); setup_s is the
// median, so short set-ups are repeated until their median is steady.
const (
	setupMinRepeats = 3
	setupMaxRepeats = 1000
	setupMinSeconds = 1.0
)

// repeatSetup runs setup as the constants above ask, releasing every state
// but the last, and returns the last state with each set-up's host seconds.
func repeatSetup[T any](setup func() (T, error), release func(T)) (T, []float64, error) {
	var st T
	var times []float64
	spent := 0.0
	for len(times) < setupMinRepeats || (spent < setupMinSeconds && len(times) < setupMaxRepeats) {
		if len(times) > 0 {
			release(st)
		}
		t0 := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return st, nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		times = append(times, d)
		spent += d
	}
	return st, times, nil
}

// minOps is the least number of timed operations a run completes, however
// short its window.
const minOps = 3

// tracer switches the CPU profiler on and off. A traced run interleaves
// traced and untraced stretches, so one run yields both the per-module
// attribution and the profiler's own cost (trace.overhead_ratio).
type tracer struct {
	mu      sync.Mutex
	on      bool
	buf     *bytes.Buffer
	stretch [][]byte
}

// set turns profiling on or off; a stretch's profile is kept when it ends.
func (t *tracer) set(on bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if on == t.on {
		return nil
	}
	if on {
		t.buf = new(bytes.Buffer)
		if err := pprof.StartCPUProfile(t.buf); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	} else {
		pprof.StopCPUProfile()
		t.stretch = append(t.stretch, t.buf.Bytes())
		t.buf = nil
	}
	t.on = on
	return nil
}

// active reports whether the profiler is on.
func (t *tracer) active() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

// collect stops profiling and attributes every stretch recorded since the
// last collect.
func (t *tracer) collect() (*attribution, error) {
	if err := t.set(false); err != nil {
		return nil, err
	}
	t.mu.Lock()
	stretches := t.stretch
	t.stretch = nil
	t.mu.Unlock()
	a := newAttribution()
	for _, s := range stretches {
		if err := a.add(s); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// memWindow brackets a timed window: it settles the heap, resets the
// kernel's peak-RSS mark and reads the allocation counters before, and the
// deltas after.
type memWindow struct {
	before runtime.MemStats
}

func startMemWindow() (*memWindow, error) {
	runtime.GC()
	// Writing 5 to clear_refs resets VmHWM to the current RSS, so the peak
	// read at the end belongs to this window alone.
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	return w, nil
}

// finish fills the window's allocation, GC and peak-RSS figures.
func (w *memWindow) finish(m *measurement) error {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.alloc = after.TotalAlloc - w.before.TotalAlloc
	m.gcCycles = after.NumGC - w.before.NumGC
	peak, err := peakRSS()
	if err != nil {
		return err
	}
	m.peakRSS = peak
	return nil
}

// peakRSS reads the process's resident-set high-water mark.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[2] != "kB" {
			return 0, fmt.Errorf("peak RSS: unexpected line %q", line)
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
