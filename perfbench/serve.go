package main

import (
	"fmt"
	"math"
	"reflect"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memphis"
	"memphis/internal/bench"
	"memphis/internal/data"
	"memphis/internal/ir"
	"memphis/internal/memctl"
	"memphis/internal/serve"
	"memphis/internal/workloads"
)

// serve-zipf: a closed loop of nproc clients drives a default NewServer
// (ReuseFull, compile cache on, coalescing off) with nproc workers. Each
// request comes from one of serveTenants tenants drawn with Zipf popularity;
// a tenant always submits the same mix. Four requests in five bind their
// tenant's hot input group, so they read the shared cache; the fifth binds
// fresh inputs, so it publishes and drives per-tenant eviction.
const (
	serveTenants   = 64
	serveZipfSkew  = 1.1
	serveHotGroups = 2
	freshEvery     = 5 // one request in five binds fresh inputs
	// weylHot and weylFresh step the stratified tenant draws of hot and
	// fresh requests: the fractional parts of the golden ratio and of
	// sqrt(2). Being rationally independent, they keep the tenants of a
	// fresh request and of its neighbours uncorrelated whatever the phases.
	weylHot   = 0.6180339887498949
	weylFresh = 0.41421356237309515
	// serveWarmCap bounds the warm-up requests that fill the busiest
	// tenant's share.
	serveWarmCap = 400
	// serveSlice is how long each traced or untraced stretch of a traced
	// run lasts.
	serveSlice = 500 * time.Millisecond
)

// serveMix is one request program; the three are memphis-serve's presets.
type serveMix struct {
	name  string
	build func(seed int64) *workloads.Workload
	fetch string
}

var serveMixes = []serveMix{
	{"hcv", func(seed int64) *workloads.Workload {
		return workloads.HCV(96, 8, 3, []float64{1e-3, 1e-2, 1e-1, 1}, seed)
	}, "best"},
	{"l2svm", func(seed int64) *workloads.Workload {
		return workloads.L2SVMMicro(64, 8, 3, []float64{0.01, 0.1, 0.2, 0.5}, seed)
	}, "acc"},
	{"pnmf", func(seed int64) *workloads.Workload {
		return workloads.PNMF(60, 40, 4, 3, seed)
	}, "obj"},
}

// serveRequest is one request of the stream.
type serveRequest struct {
	tenant    int
	mix       int
	inputSeed int64
	hot       bool
}

// serveStream is the seeded request sequence; request i depends only on the
// seed and i.
type serveStream struct {
	seed  int64
	phase [2]float64 // of the hot and the fresh tenant sequences
	cdf   []float64
}

func newServeStream(seed int64) *serveStream {
	s := &serveStream{
		seed:  seed,
		phase: [2]float64{unit(splitmix(uint64(seed))), unit(splitmix(^uint64(seed)))},
		cdf:   make([]float64, serveTenants),
	}
	sum := 0.0
	for t := range s.cdf {
		sum += math.Pow(float64(t+1), -serveZipfSkew)
		s.cdf[t] = sum
	}
	for t := range s.cdf {
		s.cdf[t] /= sum
	}
	return s
}

// request returns request i of the stream. The draws are stratified rather
// than independent, so every prefix of the stream has nearly the same make-up
// and a window's cost does not hinge on how many slow requests a seed puts
// in it: every freshEvery-th request binds fresh inputs, and the tenants of
// the fresh and of the hot requests each follow their own Weyl sequence
// (equidistributed in every prefix) through the Zipf CDF. The seed sets the
// sequences' phases and every input seed.
func (s *serveStream) request(i uint64) serveRequest {
	fresh := i%freshEvery == freshEvery-1
	u := math.Mod(s.phase[0]+float64(i)*weylHot, 1)
	if fresh {
		u = math.Mod(s.phase[1]+float64(i/freshEvery)*weylFresh, 1)
	}
	t := sort.SearchFloat64s(s.cdf, u)
	if t >= serveTenants {
		t = serveTenants - 1
	}
	r := serveRequest{tenant: t, mix: t % len(serveMixes)}
	if fresh {
		r.inputSeed = int64(splitmix(uint64(s.seed)^splitmix(i)) >> 2)
	} else {
		r.hot = true
		r.inputSeed = s.hotSeed(r.mix, (t/len(serveMixes))%serveHotGroups)
	}
	return r
}

func (s *serveStream) hotSeed(mix, group int) int64 {
	return int64(splitmix(uint64(s.seed)+uint64(mix*serveHotGroups+group)+1) >> 34)
}

// unit maps a random word to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func tenantName(t int) string { return fmt.Sprintf("tenant-%02d", t) }

// serveState is the set-up product: programs, hot inputs and a warm server.
type serveState struct {
	stream *serveStream
	progs  []*ir.Program
	hot    map[int64]map[string]*data.Matrix
	srv    *memphis.Server
}

func (st *serveState) inputs(r serveRequest) map[string]*data.Matrix {
	if r.hot {
		return st.hot[r.inputSeed]
	}
	return serveMixes[r.mix].build(r.inputSeed).HostInputs()
}

// submit sends one request that fetches its mix's single output.
func (st *serveState) submit(r serveRequest, in map[string]*data.Matrix) (*memphis.Future, error) {
	return st.srv.Submit(tenantName(r.tenant), st.progs[r.mix], memphis.SubmitOptions{
		Inputs: in,
		Fetch:  []string{serveMixes[r.mix].fetch},
	})
}

// setupServe builds the programs and hot inputs, starts the server and
// warms it up: every hot group is published once, then the busiest tenant
// (tenant 0) publishes fresh inputs until its share starts evicting, the
// state a long-running server lives in. Filling more tenants' shares
// multiplies the entries every eviction scans (see README.md).
func setupServe(seed int64) (*serveState, error) {
	st := &serveState{stream: newServeStream(seed), hot: map[int64]map[string]*data.Matrix{}}
	for mi, mix := range serveMixes {
		st.progs = append(st.progs, mix.build(0).Prog)
		for g := 0; g < serveHotGroups; g++ {
			s := st.stream.hotSeed(mi, g)
			st.hot[s] = mix.build(s).HostInputs()
		}
	}
	nproc := goruntime.NumCPU()
	st.srv = memphis.NewServer(memphis.ServerOptions{
		Options: memphis.Options{Reuse: memphis.ReuseFull},
		Workers: nproc,
	})
	fail := func(err error) (*serveState, error) {
		st.srv.Close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for t := 0; t < len(serveMixes)*serveHotGroups; t++ {
		r := serveRequest{tenant: t, mix: t % len(serveMixes), hot: true}
		r.inputSeed = st.stream.hotSeed(r.mix, (t/len(serveMixes))%serveHotGroups)
		if err := st.wait(r, st.hot[r.inputSeed]); err != nil {
			return fail(err)
		}
	}
	warmSeed := int64(splitmix(uint64(seed)^0x7761726d) >> 2)
	busiest := tenantName(0)
	for n := 0; st.srv.Snapshot().Shared.PerTenant[busiest].Evictions == 0; n += nproc {
		if n >= serveWarmCap {
			return fail(fmt.Errorf("%s's share did not fill within %d requests", busiest, serveWarmCap))
		}
		futs := make([]*memphis.Future, nproc)
		for k := range futs {
			r := serveRequest{tenant: 0, mix: 0, inputSeed: warmSeed}
			warmSeed++
			f, err := st.submit(r, st.inputs(r))
			if err != nil {
				return fail(err)
			}
			futs[k] = f
		}
		for _, f := range futs {
			if _, err := f.Wait(); err != nil {
				return fail(err)
			}
		}
	}
	return st, nil
}

func (st *serveState) wait(r serveRequest, in map[string]*data.Matrix) error {
	f, err := st.submit(r, in)
	if err != nil {
		return err
	}
	_, err = f.Wait()
	return err
}

// served is one completed request of the timed window.
type served struct {
	req                   serveRequest
	latency, submit, wait float64 // host seconds, client side
	res                   *memphis.Result
	traced                bool
}

// runServe sets the server up, drives the closed loop for the window and
// checks every fetched output against the Base reference.
func runServe(cfg runConfig) (*report, error) {
	// A window holds about 1000 requests, so p95 has 50 samples beyond it.
	m := &measurement{spans: map[string][]float64{}, interleaved: true, tailQ: 0.95}
	tr := &tracer{}
	if err := tr.set(cfg.trace); err != nil {
		return nil, err
	}
	st, setups, err := repeatSetup(func() (*serveState, error) { return setupServe(cfg.seed) },
		func(st *serveState) { st.srv.Close() })
	if err != nil {
		return nil, err
	}
	m.setups = setups
	defer st.srv.Close()
	m.spans["setup"] = m.setups
	if cfg.trace {
		if m.setupPro, err = tr.collect(); err != nil {
			return nil, err
		}
	}

	mw, err := startMemWindow()
	if err != nil {
		return nil, err
	}
	before := st.srv.Snapshot()
	done, failures := st.closedLoop(cfg, tr)
	after := st.srv.Snapshot()
	m.window = done.seconds
	if err := mw.finish(m); err != nil {
		return nil, err
	}
	if cfg.trace {
		if m.prof, err = tr.collect(); err != nil {
			return nil, err
		}
	}
	m.attempted = len(done.ops) + len(failures)
	for _, f := range failures {
		m.fail(f)
	}
	st.check(done.ops, m)
	st.measure(done.ops, before, after, m)
	return newReport(m), nil
}

type loopResult struct {
	ops     []served
	seconds float64
}

// closedLoop runs nproc clients, each submitting its next request when the
// previous one returns, until the window ends. In a traced run the profiler
// alternates on and off every serveSlice.
func (st *serveState) closedLoop(cfg runConfig, tr *tracer) (loopResult, []error) {
	nproc := goruntime.NumCPU()
	var next atomic.Uint64
	var stop atomic.Bool
	perClient := make([][]served, nproc)
	errs := make([][]error, nproc)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() || next.Load() < minOps {
				r := st.stream.request(next.Add(1) - 1)
				in := st.inputs(r)
				traced := tr.active()
				t0 := time.Now()
				f, err := st.submit(r, in)
				t1 := time.Now()
				if err != nil {
					errs[c] = append(errs[c], err)
					continue
				}
				res, err := f.Wait()
				t2 := time.Now()
				if err != nil {
					errs[c] = append(errs[c], err)
					continue
				}
				perClient[c] = append(perClient[c], served{
					req: r, res: res, traced: traced,
					latency: t2.Sub(t0).Seconds(), submit: t1.Sub(t0).Seconds(), wait: t2.Sub(t1).Seconds(),
				})
			}
		}(c)
	}
	var toggleErr error
	deadline := time.NewTimer(cfg.window)
	ticker := time.NewTicker(serveSlice)
	on := false // the set-up profile was collected, so the window starts untraced
loop:
	for {
		select {
		case <-deadline.C:
			break loop
		case <-ticker.C:
			if cfg.trace && toggleErr == nil {
				on = !on
				toggleErr = tr.set(on)
			}
		}
	}
	ticker.Stop()
	stop.Store(true)
	wg.Wait()
	out := loopResult{seconds: time.Since(start).Seconds()}
	var failures []error
	for c := range perClient {
		out.ops = append(out.ops, perClient[c]...)
		failures = append(failures, errs[c]...)
	}
	if toggleErr != nil {
		failures = append(failures, toggleErr)
	}
	sort.Slice(out.ops, func(i, j int) bool { return out.ops[i].res.Ticket < out.ops[j].res.Ticket })
	return out, failures
}

// check compares every fetched output with a reference run of the same
// mix and inputs under the Base preset with serial kernels. A mismatch is a
// failed request.
func (st *serveState) check(ops []served, m *measurement) {
	type key struct {
		mix  int
		seed int64
	}
	refs := map[key]*data.Matrix{}
	for _, op := range ops {
		refs[key{op.req.mix, op.req.inputSeed}] = nil
	}
	keys := make([]key, 0, len(refs))
	for k := range refs {
		keys = append(keys, k)
	}
	data.SetParallelism(1)
	defer data.SetParallelism(0)
	results := make([]*data.Matrix, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < goruntime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(keys); i = int(next.Add(1) - 1) {
				k := keys[i]
				r := serveRequest{mix: k.mix, inputSeed: k.seed, hot: st.hot[k.seed] != nil}
				results[i], errs[i] = reference(serveMixes[k.mix], st.inputs(r))
			}
		}()
	}
	wg.Wait()
	for i, k := range keys {
		if errs[i] != nil {
			// The requests of these inputs fail below: they have no
			// reference to match.
			m.failures = append(m.failures, fmt.Sprintf("reference %s seed %d: %v", serveMixes[k.mix].name, k.seed, errs[i]))
			continue
		}
		refs[k] = results[i]
	}
	for _, op := range ops {
		want := refs[key{op.req.mix, op.req.inputSeed}]
		if want == nil || !bitwiseEqual(op.res.Values[serveMixes[op.req.mix].fetch], want) {
			m.fail(fmt.Errorf("request %d (%s): output differs from the reference", op.res.Ticket, tenantName(op.req.tenant)))
		}
	}
}

// reference runs a mix under the Base preset in the default environment.
func reference(mix serveMix, in map[string]*data.Matrix) (out *data.Matrix, err error) {
	s := openSystem(bench.Base, bench.DefaultEnv())
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	workloads.BindHostInputs(s.ctx, in)
	if err := s.Run(mix.build(0).Prog); err != nil {
		return nil, err
	}
	return s.Lookup(mix.fetch)
}

// measure fills the samples and the serve counters of the window. Session
// counters are summed over the requests and reported per request.
func (st *serveState) measure(ops []served, before, after serve.Snapshot, m *measurement) {
	var traced, untraced, queue []float64
	var total layerStats
	hotVtimes := map[serveRequest]map[float64]bool{}
	for _, op := range ops {
		res := op.res
		m.latency = append(m.latency, op.latency)
		m.wall = append(m.wall, res.WallSeconds)
		m.vtime = append(m.vtime, res.VirtualSeconds)
		m.spans["submit"] = append(m.spans["submit"], op.submit)
		m.spans["wait"] = append(m.spans["wait"], op.wait)
		queue = append(queue, op.latency-res.WallSeconds)
		if op.traced {
			traced = append(traced, op.latency)
			m.tracedOp++
		} else {
			untraced = append(untraced, op.latency)
		}
		if op.req.hot {
			if hotVtimes[op.req] == nil {
				hotVtimes[op.req] = map[float64]bool{}
			}
			hotVtimes[op.req][res.VirtualSeconds] = true
		}
		addInt64Fields(&total.rt, res.Stats)
		addInt64Fields(&total.cache, res.Cache)
	}
	n := float64(len(ops))
	m.counters = map[string]float64{}
	for k, v := range total.counters() {
		if counterUnit(k) != "1" {
			v = ratio(v, n)
		}
		m.counters[k] = v
	}
	m.counters["runtime.insts_per_s"] = ratio(float64(total.rt.Instructions), m.window)
	m.counters["serve.queue_wait_ms_p99"] = 1000 * percentile(queue, 0.99)
	m.counters["serve.shared_hit_ratio"] = ratio(
		float64(after.Shared.Hits-before.Shared.Hits),
		float64(after.Shared.Probes-before.Shared.Probes))
	m.counters["serve.cross_tenant_hits"] = ratio(float64(after.Shared.CrossTenantHits-before.Shared.CrossTenantHits), n)
	if after.CompileCache != nil && before.CompileCache != nil {
		m.counters["serve.compile_hit_ratio"] = ratio(
			float64(after.CompileCache.Hits-before.CompileCache.Hits),
			float64(after.CompileCache.Lookups-before.CompileCache.Lookups))
	}
	var tenantEvictions int64
	for t, ts := range after.Shared.PerTenant {
		tenantEvictions += ts.Evictions - before.Shared.PerTenant[t].Evictions
	}
	m.counters["serve.tenant_evictions"] = ratio(float64(tenantEvictions), n)
	shared, shared0 := sharedPool(after), sharedPool(before)
	m.counters["memctl.shared.evictions"] = ratio(float64(shared.Evictions-shared0.Evictions), n)
	m.counters["memctl.shared.demotions"] = ratio(float64(shared.Demotions-shared0.Demotions), n)
	m.counters["memctl.shared.peak_bytes"] = float64(shared.PeakUsed)
	for _, set := range hotVtimes {
		if len(set) > m.vdistinct {
			m.vdistinct = len(set)
		}
	}
	if len(traced) > 0 {
		m.overhead = ratio(median(traced), median(untraced))
	}
}

// sharedPool is the shared cache's global arbiter row.
func sharedPool(snap serve.Snapshot) memctl.PoolStats {
	for _, p := range snap.Shared.Pools {
		if p.Name == "shared" {
			return p
		}
	}
	return memctl.PoolStats{}
}

// addInt64Fields adds every int64 field of src to dst, a pointer to a
// struct of the same type.
func addInt64Fields[T any](dst *T, src T) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		if f := d.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() + s.Field(i).Int())
		}
	}
}
