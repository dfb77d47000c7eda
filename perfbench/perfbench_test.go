package main

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime/pprof"
	"testing"
)

// TestSpecMatchesReport checks that BENCHMARK.json names exactly the
// metrics the report emits, in each mode.
func TestSpecMatchesReport(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	r := newReport(&measurement{counters: map[string]float64{}, spans: map[string][]float64{}})
	for _, tc := range []struct {
		mode string
		spec []specMetric
		got  []namedMetric
	}{{"end_to_end", spec.EndToEnd, r.endToEnd}, {"per_layer", spec.PerLayer, r.perLayer}} {
		want := map[string]bool{}
		for _, m := range tc.spec {
			if want[m.Name] {
				t.Errorf("%s: %s listed twice", tc.mode, m.Name)
			}
			want[m.Name] = true
		}
		for _, m := range tc.got {
			if !want[m.name] {
				t.Errorf("%s: report emits %s, which BENCHMARK.json does not list", tc.mode, m.name)
			}
			delete(want, m.name)
		}
		for n := range want {
			t.Errorf("%s: BENCHMARK.json lists %s, which the report does not emit", tc.mode, n)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
		{[]float64{1, 2, 4, 8}, 1.25, 7},
	} {
		q1, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "memphis/internal/data.MatMul", "memphis/internal/runtime.(*Context).exec"}, "data"},
		{[]string{"memphis/internal/data.parallelFor.func1"}, "data"},
		{[]string{"memphis.(*Session).Run", "main.main"}, bucketFacade},
		{[]string{"main.bitwiseEqual", "main.main"}, bucketHarness},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, bucketOther},
	} {
		if got := bucketOf(tc.frames); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

// spin burns CPU in this package so a profile has samples to attribute.
//
//go:noinline
func spin(n int) float64 {
	x := 0.0
	for i := 0; i < n; i++ {
		x += math.Sqrt(float64(i))
	}
	return x
}

var sink float64

// TestAttributionDecodesRuntimeProfiles round-trips a real CPU profile from
// runtime/pprof through the decoder.
func TestAttributionDecodesRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	for i := 0; i < 20; i++ {
		sink += spin(5_000_000)
	}
	pprof.StopCPUProfile()
	a := newAttribution()
	if err := a.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if a.samples == 0 {
		t.Skip("no samples recorded")
	}
	// Test functions live in package main too, so the spin loop is
	// charged to the benchmark's own bucket.
	if share := a.share(bucketHarness); share < 0.5 {
		t.Errorf("harness share %.2f, want most samples; buckets %v", share, a.nanos)
	}
}

// TestResultLine checks the JSON line's shape.
func TestResultLine(t *testing.T) {
	r := newReport(&measurement{
		setups: []float64{1}, window: 1, latency: []float64{0.5}, wall: []float64{0.4},
		attempted: 1, counters: map[string]float64{}, spans: map[string][]float64{},
	})
	line, err := json.Marshal(r.result(false))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(got), line)
	}
}
