package main

import (
	"errors"
	"reflect"

	"memphis"
	"memphis/internal/core"
	"memphis/internal/gpu"
	"memphis/internal/memctl"
	"memphis/internal/runtime"
	"memphis/internal/spark"
)

// layerStats gathers the public stats structs of one session.
type layerStats struct {
	rt          runtime.Stats
	cache       core.Stats
	spark       spark.Stats
	gpuManager  gpu.ManagerStats
	gpuDevice   gpu.DeviceStats
	pools       []memctl.PoolStats
	arenaGets   int64
	arenaReuses int64
	plans       []runtime.PlanReport
}

// contextStats reads the stats of a session built from a bench.System.
func contextStats(ctx *runtime.Context) layerStats {
	st := layerStats{rt: ctx.Stats, cache: ctx.Cache.Stats, pools: ctx.Arb.Snapshot(), plans: ctx.PlanReports()}
	if ctx.SC != nil {
		st.spark = ctx.SC.Stats
	}
	if ctx.GM != nil {
		st.gpuManager = ctx.GM.Stats
		st.gpuDevice = ctx.GM.Device().Stats
	}
	if a := ctx.Arena(); a != nil {
		st.arenaGets, st.arenaReuses, _, _ = a.Stats()
	}
	return st
}

// sessionStats reads the stats of a facade session.
func sessionStats(s *memphis.Session) (layerStats, error) {
	all := s.Stats()
	st := layerStats{rt: all.Stats, cache: s.CacheStats(), pools: all.Memory, plans: s.PlanReports()}
	st.arenaGets, st.arenaReuses, _, _ = s.ArenaStats()
	sp, err := sessionSparkStats(s)
	st.spark = sp
	return st, err
}

// sessionSparkStats reads the Spark counters of a facade session. The
// facade exposes no accessor for spark.Stats, so they are read, never
// written, through reflection; a renamed field fails the run rather than
// reporting zeros.
func sessionSparkStats(s *memphis.Session) (spark.Stats, error) {
	var out spark.Stats
	ctx := reflect.ValueOf(s).Elem().FieldByName("ctx")
	if !ctx.IsValid() || ctx.Kind() != reflect.Pointer || ctx.IsNil() {
		return out, errors.New("spark stats: memphis.Session has no runtime context field")
	}
	sc := ctx.Elem().FieldByName("SC")
	if !sc.IsValid() || sc.Kind() != reflect.Pointer {
		return out, errors.New("spark stats: runtime.Context has no SC field")
	}
	if sc.IsNil() {
		return out, nil
	}
	src := sc.Elem().FieldByName("Stats")
	dst := reflect.ValueOf(&out).Elem()
	if !src.IsValid() || src.Type() != dst.Type() {
		return out, errors.New("spark stats: spark.Context.Stats is not a spark.Stats")
	}
	for i := 0; i < dst.NumField(); i++ {
		dst.Field(i).SetInt(src.Field(i).Int())
	}
	return out, nil
}

// counters flattens the stats into the per-layer counter names.
func (st layerStats) counters() map[string]float64 {
	rt, c := st.rt, st.cache
	hits := c.HitsCP + c.HitsRDD + c.HitsGPU + c.HitsFunc + c.HitsActon
	m := map[string]float64{
		"data.arena_gets":          float64(st.arenaGets),
		"data.arena_reuse_ratio":   ratio(float64(st.arenaReuses), float64(st.arenaGets)),
		"runtime.insts":            float64(rt.Instructions),
		"runtime.insts_cp":         float64(rt.CPInsts),
		"runtime.insts_sp":         float64(rt.SPInsts),
		"runtime.insts_gpu":        float64(rt.GPUInsts),
		"runtime.func_reuses":      float64(rt.FuncReuses),
		"runtime.prefetches":       float64(rt.Prefetches),
		"runtime.broadcasts":       float64(rt.Broadcasts),
		"runtime.checkpoints":      float64(rt.Checkpoints),
		"core.probes":              float64(c.Probes),
		"core.hit_ratio":           ratio(float64(hits), float64(c.Probes)),
		"core.puts":                float64(c.Puts),
		"core.evictions_cp":        float64(c.EvictionsCP),
		"core.spills_cp":           float64(c.SpillsCP),
		"memplan.early_frees":      float64(rt.EarlyFrees),
		"spark.jobs":               float64(st.spark.Jobs),
		"spark.tasks":              float64(st.spark.Tasks),
		"spark.shuffle_bytes":      float64(st.spark.ShuffleBytes),
		"spark.broadcast_bytes":    float64(st.spark.BroadcastBytes),
		"spark.partitions_evicted": float64(st.spark.PartitionsEvicted),
		"gpu.kernels":              float64(st.gpuDevice.Kernels),
		"gpu.fresh_mallocs":        float64(st.gpuManager.FreshMallocs),
		"gpu.recycled":             float64(st.gpuManager.Recycled),
		"gpu.h2d_bytes":            float64(st.gpuDevice.H2DBytes),
		"gpu.d2h_bytes":            float64(st.gpuDevice.D2HBytes),
	}
	var splits int64
	for _, p := range st.plans {
		splits += int64(p.Splits) * p.Runs
	}
	m["memplan.splits"] = float64(splits)
	addPools(m, st.pools)
	return m
}

// addPools adds the memctl rows of the named pools.
func addPools(m map[string]float64, pools []memctl.PoolStats) {
	for _, p := range pools {
		m["memctl."+p.Name+".evictions"] += float64(p.Evictions)
		m["memctl."+p.Name+".demotions"] += float64(p.Demotions)
		m["memctl."+p.Name+".peak_bytes"] += float64(p.PeakUsed)
	}
}
