package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"memphis"
	"memphis/internal/bench"
	"memphis/internal/compiler"
	"memphis/internal/data"
	"memphis/internal/ir"
	"memphis/internal/runtime"
	"memphis/internal/workloads"
)

// session is the surface a pipeline run needs; *memphis.Session has it, and
// systemSession gives it to a context built from a bench.System preset.
type session interface {
	Bind(name string, m *memphis.Matrix)
	Run(p *ir.Program) error
	Lookup(name string) (*memphis.Matrix, error)
	VirtualTime() float64
	Close() error
}

// systemSession runs programs the way bench.System.Run does for the paper's
// figures: the preset's program rewrites, then RunProgram.
type systemSession struct {
	sys bench.System
	ctx *runtime.Context
}

func openSystem(sys bench.System, env bench.Env) *systemSession {
	return &systemSession{sys: sys, ctx: sys.NewContext(env)}
}

func (s *systemSession) Bind(name string, m *data.Matrix) { s.ctx.BindHost(name, m) }

func (s *systemSession) Run(p *ir.Program) error {
	if s.sys.AutoTune {
		compiler.AutoTune(p)
	}
	if s.sys.Checkpoints {
		compiler.InjectLoopCheckpoints(p)
	}
	if s.sys.Evictions {
		compiler.InjectEvictions(p)
	}
	return s.ctx.RunProgram(p)
}

func (s *systemSession) Lookup(name string) (*data.Matrix, error) {
	v := s.ctx.Var(name)
	if v == nil {
		return nil, fmt.Errorf("variable %q is not bound", name)
	}
	return s.ctx.EnsureHostValue(v), nil
}

func (s *systemSession) VirtualTime() float64 { return s.ctx.Clock.Now() }
func (s *systemSession) Close() error         { return s.ctx.Close() }

// pipeline is a single-session workload: one client runs the pipeline back
// to back, each time on a fresh session, as the paper's figures do.
type pipeline struct {
	build func(seed int64) *workloads.Workload
	// inputs names the variables Bind installs, read back once at set-up
	// for workloads without HostInputs (their Bind regenerates the data).
	inputs  []string
	outputs []string
	open    func() session
	// reference opens the oracle session: the Base preset (reuse off) with
	// every operator on CP.
	reference func() session
}

// Environments of the paper figures each pipeline reproduces.
func fig13cEnv() bench.Env {
	env := bench.DefaultEnv()
	env.OpMemBudget = 16 << 20
	env.GPUCapacity = 0
	return env
}

func fig14cEnv() bench.Env {
	env := bench.DefaultEnv()
	env.OpMemBudget = 1 << 30
	env.GPUMinCells = 64
	return env
}

// pnmfBudget is pnmf-spark's operation memory and driver-cache budget,
// small enough that W and X are distributed and every pool is under
// pressure.
const pnmfBudget = 64 << 10

func pnmfOptions() memphis.Options {
	return memphis.Options{
		Reuse:         memphis.ReuseFull,
		OpMemBudget:   pnmfBudget,
		MemoryBudgets: memphis.MemoryBudgets{CP: pnmfBudget},
		Fusion:        true,
		Arena:         true,
		MemoryPlanner: true,
	}
}

// statsOf reads the stats structs of either kind of session.
func statsOf(s session) (layerStats, error) {
	switch s := s.(type) {
	case *memphis.Session:
		return sessionStats(s)
	case *systemSession:
		return contextStats(s.ctx), nil
	}
	return layerStats{}, fmt.Errorf("no stats for session type %T", s)
}

var hbandCP = &pipeline{
	build: func(seed int64) *workloads.Workload { return workloads.HBand(32000, 64, 3, 4, 3, 50, seed) },
	inputs: []string{
		"X", "Xv", "ys", "Y", "w0", "W0", "accSvm", "accMlr", "ensScore",
	},
	outputs:   []string{"accSvm", "accMlr", "ensScore"},
	open:      func() session { return openSystem(bench.MPH, fig13cEnv()) },
	reference: func() session { return openSystem(bench.Base, fig13cEnv()) },
}

var pnmfSpark = &pipeline{
	build:   func(seed int64) *workloads.Workload { return workloads.PNMF(3000, 60, 8, 25, seed) },
	outputs: []string{"W", "H", "obj"},
	open:    func() session { return memphis.New(pnmfOptions()) },
	// The default environment keeps the reference on CP: bitwise the same
	// as the distributed run, and 25 times faster than Base on Spark.
	reference: func() session { return openSystem(bench.Base, bench.DefaultEnv()) },
}

var en2deFine = &pipeline{
	build:     func(seed int64) *workloads.Workload { return workloads.En2De(20000, 300, 32, 64, seed) },
	inputs:    []string{"E", "W1", "W2", "W3", "W4", "total"},
	outputs:   []string{"total"},
	open:      func() session { return openSystem(bench.MPH, fig14cEnv()) },
	reference: func() session { return openSystem(bench.Base, fig14cEnv()) },
}

// pipelineInputs is the set-up product: the materialized inputs.
type pipelineInputs struct {
	names  []string
	values map[string]*data.Matrix
}

// setup builds the workload and materializes its inputs, binding them the
// way the workload does.
func (p *pipeline) setup(seed int64) (*pipelineInputs, error) {
	w := p.build(seed)
	in := &pipelineInputs{values: map[string]*data.Matrix{}}
	if w.HostInputs != nil {
		in.values = w.HostInputs()
	} else {
		s := openSystem(bench.Base, bench.DefaultEnv())
		w.Bind(s.ctx)
		for _, n := range p.inputs {
			m, err := s.Lookup(n)
			if err != nil {
				return nil, err
			}
			in.values[n] = m
		}
		if err := s.Close(); err != nil {
			return nil, err
		}
	}
	for n := range in.values {
		in.names = append(in.names, n)
	}
	sort.Strings(in.names)
	return in, nil
}

// execution is one pipeline run's outcome.
type execution struct {
	latency, wall, run, fetch float64 // host seconds
	vtime                     float64
	outputs                   []*data.Matrix
	counters                  map[string]float64
	err                       error
}

// execute runs the pipeline once on a fresh session. The latency covers
// opening the session, binding, Run and fetching the outputs; wall covers
// Run and the fetch. The program is built fresh because the rewrites mutate
// it.
func (p *pipeline) execute(open func() session, in *pipelineInputs, seed int64, tr *tracer, traced bool) (ex execution) {
	prog := p.build(seed).Prog
	if err := tr.set(traced); err != nil {
		ex.err = err
		return ex
	}
	var s session
	defer func() {
		if r := recover(); r != nil {
			ex.err = fmt.Errorf("panic: %v", r)
		}
		if s != nil {
			if err := s.Close(); err != nil && ex.err == nil {
				ex.err = err
			}
		}
	}()
	t0 := time.Now()
	s = open()
	for _, n := range in.names {
		s.Bind(n, in.values[n])
	}
	v0 := s.VirtualTime()
	t1 := time.Now()
	if err := s.Run(prog); err != nil {
		ex.err = err
		return ex
	}
	t2 := time.Now()
	for _, n := range p.outputs {
		m, err := s.Lookup(n)
		if err != nil {
			ex.err = err
			return ex
		}
		ex.outputs = append(ex.outputs, m)
	}
	t3 := time.Now()
	if err := tr.set(false); err != nil {
		ex.err = err
		return ex
	}
	ex.latency, ex.wall = t3.Sub(t0).Seconds(), t3.Sub(t1).Seconds()
	ex.run, ex.fetch = t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	ex.vtime = s.VirtualTime() - v0
	st, err := statsOf(s)
	if err != nil {
		ex.err = err
		return ex
	}
	ex.counters = st.counters()
	return ex
}

// runPipeline sets the workload up, warms up with one untimed execution,
// runs executions for the window, and checks every output against the Base
// reference.
func runPipeline(p *pipeline, cfg runConfig) (*report, error) {
	// A window holds 17 to 100 pipeline runs: too few for a tail above the
	// median with ten samples beyond it.
	m := &measurement{spans: map[string][]float64{}, tailQ: 0.5}
	tr := &tracer{}
	if err := tr.set(cfg.trace); err != nil {
		return nil, err
	}
	in, setups, err := repeatSetup(func() (*pipelineInputs, error) { return p.setup(cfg.seed) }, func(*pipelineInputs) {})
	if err != nil {
		return nil, err
	}
	m.setups = setups
	m.spans["setup"] = m.setups
	if cfg.trace {
		if m.setupPro, err = tr.collect(); err != nil {
			return nil, err
		}
	}

	warm := p.execute(p.open, in, cfg.seed, tr, false)
	if warm.err != nil {
		return nil, fmt.Errorf("warm-up execution: %w", warm.err)
	}

	mw, err := startMemWindow()
	if err != nil {
		return nil, err
	}
	var traced, untraced []float64
	var reps []map[string]float64
	vtimes := map[float64]bool{warm.vtime: true}
	start := time.Now()
	for m.attempted < minOps || time.Since(start) < cfg.window {
		isTraced := cfg.trace && m.attempted%2 == 1
		ex := p.execute(p.open, in, cfg.seed, tr, isTraced)
		m.attempted++
		if ex.err == nil {
			ex.err = sameOutputs(p.outputs, ex.outputs, warm.outputs)
		}
		if ex.err != nil {
			m.fail(ex.err)
			continue
		}
		m.latency = append(m.latency, ex.latency)
		m.wall = append(m.wall, ex.wall)
		m.vtime = append(m.vtime, ex.vtime)
		vtimes[ex.vtime] = true
		m.spans["run"] = append(m.spans["run"], ex.run)
		m.spans["fetch"] = append(m.spans["fetch"], ex.fetch)
		reps = append(reps, ex.counters)
		if isTraced {
			traced = append(traced, ex.latency)
			m.tracedOp++
		} else {
			untraced = append(untraced, ex.latency)
		}
	}
	m.window = time.Since(start).Seconds()
	if err := mw.finish(m); err != nil {
		return nil, err
	}
	if cfg.trace {
		if m.prof, err = tr.collect(); err != nil {
			return nil, err
		}
		m.overhead = ratio(median(traced), median(untraced))
	}
	m.vdistinct = len(vtimes)
	m.counters, m.nonRepeating = medianCounters(warm.counters, reps)
	m.counters["runtime.insts_per_s"] = ratio(m.counters["runtime.insts"], median(m.wall))

	// The oracle: the same seed under the Base preset, serial kernels.
	data.SetParallelism(1)
	ref := p.execute(p.reference, in, cfg.seed, tr, false)
	data.SetParallelism(0)
	if ref.err == nil {
		ref.err = sameOutputs(p.outputs, warm.outputs, ref.outputs)
	}
	if ref.err != nil {
		// Every execution matched the warm-up, so a warm-up that differs
		// from the reference fails them all.
		m.failed = m.attempted
		m.failures = append(m.failures, "reference: "+ref.err.Error())
	}
	return newReport(m), nil
}

// fail counts a failed operation and keeps the first few messages.
func (m *measurement) fail(err error) {
	m.failed++
	if len(m.failures) < 5 {
		m.failures = append(m.failures, err.Error())
	}
}

// sameOutputs reports the first output that is not bitwise identical to
// its counterpart.
func sameOutputs(names []string, got, want []*data.Matrix) error {
	if len(got) != len(want) {
		return fmt.Errorf("fetched %d outputs, want %d", len(got), len(want))
	}
	for i, g := range got {
		if !bitwiseEqual(g, want[i]) {
			return fmt.Errorf("output %q differs from the reference", names[i])
		}
	}
	return nil
}

func bitwiseEqual(a, b *data.Matrix) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Data) != len(b.Data) {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// medianCounters returns each counter's median over the repetitions and the
// names of counters that differ from the warm-up execution in any
// repetition.
func medianCounters(first map[string]float64, reps []map[string]float64) (map[string]float64, []string) {
	out := map[string]float64{}
	var differ []string
	for name, v := range first {
		vals := []float64{v}
		same := true
		for _, r := range reps {
			vals = append(vals, r[name])
			same = same && r[name] == v
		}
		out[name] = median(vals)
		if !same {
			differ = append(differ, name)
		}
	}
	sort.Strings(differ)
	return out, differ
}
