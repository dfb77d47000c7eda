package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Per-layer counter names the report always emits, in output order; a
// workload that does not exercise a layer reports 0. Module self times and
// the Go-runtime rows come from the profile (see profile.go).
var layerCounters = []string{
	"data.arena_gets", "data.arena_reuse_ratio",
	"runtime.insts", "runtime.insts_cp", "runtime.insts_sp", "runtime.insts_gpu",
	"runtime.insts_per_s", "runtime.func_reuses", "runtime.prefetches",
	"runtime.broadcasts", "runtime.checkpoints",
	"core.probes", "core.hit_ratio", "core.puts", "core.evictions_cp", "core.spills_cp",
	"memplan.early_frees", "memplan.splits",
	"spark.jobs", "spark.tasks", "spark.shuffle_bytes", "spark.broadcast_bytes", "spark.partitions_evicted",
	"gpu.kernels", "gpu.fresh_mallocs", "gpu.recycled", "gpu.h2d_bytes", "gpu.d2h_bytes",
	"serve.queue_wait_ms_p99", "serve.shared_hit_ratio", "serve.cross_tenant_hits",
	"serve.compile_hit_ratio", "serve.tenant_evictions",
}

// memctlPools are the arbiter pools whose counters the report emits.
var memctlPools = []string{"cp", "spark-reuse", "spark", "gpu", "arena", "shared"}

// selfModules are the modules whose profile self time is a per-layer metric.
var selfModules = []string{
	"datasets", "data", "ir", "compiler", "runtime", "costs", "vtime",
	"lineage", "core", "memctl", "memplan", "spark", "gpu", "serve",
}

// spanNames are the benchmark-side spans around calls into the system.
var spanNames = []string{"setup", "run", "fetch", "submit", "wait"}

// measurement is what a workload runner hands to the report: raw samples
// from the timed window plus the counters read from the stats structs.
type measurement struct {
	setups  []float64 // host seconds of each set-up
	window  float64   // host seconds of the timed window
	latency []float64 // host seconds per completed operation, as its client saw it
	// tailQ is the percentile latency_tail_ms reports: the highest of p95
	// and p50 whose window at run_seconds 20 leaves ten samples beyond it.
	tailQ float64
	wall  []float64 // host seconds of each pipeline execution
	vtime []float64 // virtual seconds per completed operation
	// vdistinct is the number of distinct virtual times among operations
	// that should repeat exactly (see README.md).
	vdistinct int

	attempted, failed int
	failures          []string // first few failure messages

	alloc    uint64 // heap bytes allocated in the timed window
	peakRSS  int64  // peak resident bytes in the timed window
	gcCycles uint32 // GC cycles in the timed window

	counters     map[string]float64 // per-operation layer counters
	nonRepeating []string           // counters that differ between repetitions
	interleaved  bool               // counters depend on request interleaving
	spans        map[string][]float64

	// Traced runs only.
	prof     *attribution // window profile
	setupPro *attribution // set-up profile
	tracedOp int          // operations completed while the profiler ran
	overhead float64      // traced / untraced median latency
}

// report is one invocation's output.
type report struct {
	endToEnd  []namedMetric
	perLayer  []namedMetric
	attempted int
	failed    int
	notes     []string
}

type namedMetric struct {
	name  string
	value float64
	unit  string
	clock string
}

// newReport derives every metric from a measurement.
func newReport(m *measurement) *report {
	r := &report{attempted: m.attempted, failed: m.failed}
	ops := float64(len(m.latency))
	perOp := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / ops
	}
	ms := func(v float64) float64 { return v * 1000 }
	r.endToEnd = []namedMetric{
		{"setup_s", median(m.setups), "s", "host"},
		{"wall_s", median(m.wall), "s", "host"},
		{"req_per_s", ops / m.window, "1/s", "host"},
		{"latency_p50_ms", ms(percentile(m.latency, 0.50)), "ms", "host"},
		{"latency_tail_ms", ms(percentile(m.latency, m.tailQ)), "ms", "host"},
		{"alloc_bytes", perOp(float64(m.alloc)), "B", "host"},
		{"peak_rss_bytes", float64(m.peakRSS), "B", "host"},
	}

	add := func(name string, v float64, unit, clock string) {
		r.perLayer = append(r.perLayer, namedMetric{name, v, unit, clock})
	}
	add("vtime_s", median(m.vtime), "vs", "virtual")
	add("vlatency_p50_s", percentile(m.vtime, 0.50), "vs", "virtual")
	add("vlatency_p99_s", percentile(m.vtime, 0.99), "vs", "virtual")
	add("vtime.distinct", float64(m.vdistinct), "count", "virtual")
	add("fail_ratio", ratio(float64(m.failed), float64(m.attempted)), "1", "count")
	for _, n := range layerCounters {
		add(n, m.counters[n], counterUnit(n), "count")
	}
	for _, p := range memctlPools {
		add("memctl."+p+".evictions", m.counters["memctl."+p+".evictions"], "count", "count")
		add("memctl."+p+".demotions", m.counters["memctl."+p+".demotions"], "count", "count")
		add("memctl."+p+".peak_bytes", m.counters["memctl."+p+".peak_bytes"], "B", "count")
	}
	add("counters.nonrepeating", float64(len(m.nonRepeating)), "count", "count")
	for _, s := range spanNames {
		add("span."+s+"_s", median(m.spans[s]), "s", "host")
	}
	traced := float64(m.tracedOp)
	perTraced := func(v float64) float64 {
		if traced == 0 {
			return 0
		}
		return v / traced
	}
	var setupSelf float64
	if m.setupPro != nil && len(m.setups) > 0 {
		setupSelf = m.setupPro.seconds("datasets") / float64(len(m.setups))
	}
	for _, mod := range selfModules {
		v := 0.0
		if mod == "datasets" {
			v = setupSelf
		} else if m.prof != nil {
			v = perTraced(m.prof.seconds(mod))
		}
		add(mod+".self_s", v, "s", "host")
	}
	if m.prof != nil {
		add("go.gc_s", perTraced(m.prof.seconds(bucketGC)), "s", "host")
		add("other.self_s", perTraced(m.prof.seconds(bucketOther)), "s", "host")
		add("other.share", m.prof.share(bucketOther), "1", "host")
	} else {
		add("go.gc_s", 0, "s", "host")
		add("other.self_s", 0, "s", "host")
		add("other.share", 0, "1", "host")
	}
	add("go.gc_cycles", perOp(float64(m.gcCycles)), "1/op", "host")
	add("trace.overhead_ratio", m.overhead, "1", "host")

	r.notes = append(r.notes, fmt.Sprintf("samples: %d operations in %.2f s (%d attempted, %d failed); %d set-ups",
		len(m.latency), m.window, m.attempted, m.failed, len(m.setups)))
	r.notes = append(r.notes, fmt.Sprintf("latency_tail_ms is p%.0f; latency ms over %d samples: p50 %.4g, p90 %.4g, p95 %.4g, p99 %.4g, max %.4g",
		100*m.tailQ, len(m.latency), ms(percentile(m.latency, 0.5)), ms(percentile(m.latency, 0.9)),
		ms(percentile(m.latency, 0.95)), ms(percentile(m.latency, 0.99)), ms(percentile(m.latency, 1))))
	for _, f := range m.failures {
		r.notes = append(r.notes, "failure: "+f)
	}
	if len(m.nonRepeating) > 0 {
		r.notes = append(r.notes, "counters that did not repeat exactly across repetitions: "+
			strings.Join(m.nonRepeating, ", "))
	}
	if m.interleaved {
		r.notes = append(r.notes, "serve counters are per request and depend on request interleaving")
	}
	if m.prof != nil {
		r.notes = append(r.notes, m.prof.table(fmt.Sprintf("timed-window profile (%d traced operations)", m.tracedOp))...)
	}
	if m.setupPro != nil {
		r.notes = append(r.notes, m.setupPro.table("set-up profile")...)
	}
	return r
}

// counterUnit picks the unit of a per-layer counter from its name.
func counterUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_bytes"):
		return "B"
	case strings.HasSuffix(name, "_ratio"):
		return "1"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ms_p99"):
		return "ms"
	}
	return "count"
}

// result is the JSON line for the chosen mode.
func (r *report) result(trace bool) result {
	list := r.endToEnd
	if trace {
		list = r.perLayer
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range list {
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	return res
}

// print writes the human-readable report: every metric with its unit and
// clock, then the notes.
func (r *report) print(w io.Writer, workload string, seed int64) {
	fmt.Fprintf(w, "perfbench %s seed=%d\n", workload, seed)
	for _, group := range []struct {
		title string
		list  []namedMetric
	}{{"end-to-end", r.endToEnd}, {"per-layer", r.perLayer}} {
		fmt.Fprintf(w, "%s:\n", group.title)
		for _, m := range group.list {
			fmt.Fprintf(w, "  %-28s %16.6g %-6s (%s)\n", m.name, m.value, m.unit, m.clock)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
}

// median returns the middle value (the mean of the two middle values for an
// even count), or 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile, or 0 for no values.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
