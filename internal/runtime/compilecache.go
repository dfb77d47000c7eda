package runtime

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"memphis/internal/compiler"
	"memphis/internal/ir"
	"memphis/internal/memplan"
)

// CompiledBlock is one fully prepared basic-block execution unit: the
// stream to execute and, when a memory planner is configured, its plan.
// Stored blocks are shared read-only across concurrent sessions:
// instructions are never mutated during execution and memplan.Plan's
// runtime queries (LifetimeAt, SkipCache, NextUse) are read-only, so no
// further synchronization is needed once a block is published.
type CompiledBlock struct {
	// Planned is the stream to execute: the planner-rewritten stream, or
	// the compiled stream itself when no planner is configured.
	Planned []compiler.Instruction
	// Plan is the memory plan for Planned (nil without a planner).
	Plan *memplan.Plan
	// Sig is streamSig of the compiled stream (zero without a planner): the
	// session-level plan-record key, so blocks compiling to the same stream
	// share one record of planner accounting.
	Sig uint64
}

// blockStoreShards is the block store's lock-shard count.
const blockStoreShards = 16

// BlockStore is the content-addressed store of compiled and planned basic
// blocks; every block a session executes is compiled through one. New
// gives each context a private store, and the serving layer attaches one
// server-wide store to all request sessions (AttachCompileCache), so hot
// programs compile, auto-tune, and memory-plan once and every tenant
// executes the same shared blocks. Keys are computed per basic block by
// Context.blockKey as (program key, block structure, read-variable shapes,
// compiler config, planner config), so entries are never shared across
// different programs on a server, different input shapes, or different
// planner budgets.
//
// Compilation charges no virtual time, so the store is vtime-neutral:
// results and virtual latencies do not depend on which session compiled a
// block first. The zero value is an empty store, safe for concurrent use.
type BlockStore struct {
	shards [blockStoreShards]blockShard

	// lookups counts load calls and is deterministic for a given request
	// mix (each block execution performs one lookup, independent of
	// interleaving). hits and stores depend on timing: two sessions racing
	// on a cold key may both miss and compile, with the first store
	// winning. Deterministic reports therefore derive the hit rate as
	// 1 - entries/lookups rather than from the raw hit counter.
	lookups atomic.Int64
	hits    atomic.Int64
	stores  atomic.Int64
}

type blockShard struct {
	mu sync.RWMutex
	m  map[uint64]*CompiledBlock
}

func (s *BlockStore) shard(key uint64) *blockShard {
	return &s.shards[key%blockStoreShards]
}

// load returns the block stored under key.
func (s *BlockStore) load(key uint64) (*CompiledBlock, bool) {
	s.lookups.Add(1)
	sh := s.shard(key)
	sh.mu.RLock()
	cb, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	}
	return cb, ok
}

// store publishes cb under key and returns the block that ends up
// resident: the first writer wins, and racing writers adopt the resident
// block so every session executes the same shared object.
func (s *BlockStore) store(key uint64, cb *CompiledBlock) *CompiledBlock {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if prev, ok := sh.m[key]; ok {
		return prev
	}
	if sh.m == nil {
		sh.m = make(map[uint64]*CompiledBlock)
	}
	sh.m[key] = cb
	s.stores.Add(1)
	return cb
}

// BlockStoreStats is a point-in-time counter snapshot. Lookups and Entries
// are deterministic for a fixed request mix; Hits and Stores can vary with
// interleaving (racing cold-key compiles), so deterministic consumers
// compute HitRate = 1 - Entries/Lookups.
type BlockStoreStats struct {
	Lookups int64 `json:"lookups"`
	Hits    int64 `json:"hits"`
	Stores  int64 `json:"stores"`
	Entries int64 `json:"entries"`
	Shards  int   `json:"shards"`
}

// StatsSnapshot returns current counters.
func (s *BlockStore) StatsSnapshot() BlockStoreStats {
	st := BlockStoreStats{
		Lookups: s.lookups.Load(),
		Hits:    s.hits.Load(),
		Stores:  s.stores.Load(),
		Shards:  blockStoreShards,
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.Entries += int64(len(sh.m))
		sh.mu.RUnlock()
	}
	return st
}

// HitRate is the deterministic hit-rate estimate: the fraction of lookups
// that did not require a distinct compilation. Returns 0 with no lookups.
func (st BlockStoreStats) HitRate() float64 {
	if st.Lookups == 0 {
		return 0
	}
	return 1 - float64(st.Entries)/float64(st.Lookups)
}

// AttachCompileCache replaces the session's private block store with a
// shared one. programKey identifies the program (ir.Program.Fingerprint of
// the submitted script); it is folded into every block key so textually
// different scripts never share entries even when individual blocks
// compile identically.
func (ctx *Context) AttachCompileCache(bs *BlockStore, programKey uint64) {
	ctx.blocks = bs
	ctx.progKey = programKey
}

// blockKeyParts memoizes the shape-independent components of a block's
// store key: the structural fingerprint and the sorted set of variables
// the block reads (whose shapes are the dynamic key component).
type blockKeyParts struct {
	fp    uint64
	reads []string
}

// blockKey computes the store key for one basic block in the current
// environment: (program, block structure, shapes of the variables the
// block reads, compiler config, planner config). Compilation is a pure
// function of exactly these inputs — CompileBlock consults the shape
// environment only through the block's variable references — so equal keys
// imply bitwise-equal compiled streams.
func (ctx *Context) blockKey(bb *ir.BasicBlock) uint64 {
	parts, ok := ctx.bbKeys[bb]
	if !ok {
		readSet := make(map[string]struct{})
		for _, st := range bb.Stmts {
			ir.VarsRead(st.Expr, readSet)
		}
		reads := make([]string, 0, len(readSet))
		for name := range readSet {
			reads = append(reads, name)
		}
		sort.Strings(reads)
		parts = blockKeyParts{fp: ir.FingerprintBlock(bb), reads: reads}
		ctx.bbKeys[bb] = parts
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|%016x|", ctx.progKey, parts.fp)
	for _, name := range parts.reads {
		if v, bound := ctx.vars[name]; bound {
			fmt.Fprintf(h, "%s=%dx%d;", name, v.Rows, v.Cols)
		} else {
			fmt.Fprintf(h, "%s=?;", name)
		}
	}
	// Config.Fold is the deterministic key text (an interface field in the
	// config would print pointer addresses under %+v); it includes the
	// calibration epoch/fingerprint when adaptive placement is active.
	fmt.Fprintf(h, "|cc:%s", ctx.Conf.Compiler.Fold())
	if ctx.Conf.MemPlan != nil {
		fmt.Fprintf(h, "|mp:%+v", *ctx.Conf.MemPlan)
	}
	return h.Sum64()
}

// compiledBlock returns the prepared execution unit for a basic block from
// the session's block store, compiling (and planning) it on a miss.
func (ctx *Context) compiledBlock(bb *ir.BasicBlock) *CompiledBlock {
	key := ctx.blockKey(bb)
	if cb, hit := ctx.blocks.load(key); hit {
		return cb
	}
	insts := compiler.CompileBlock(bb, ctx.shapes(), ctx.Conf.Compiler)
	cb := &CompiledBlock{Planned: insts}
	if ctx.Conf.MemPlan != nil {
		cb.Planned, cb.Plan = memplan.Apply(insts, *ctx.Conf.MemPlan)
		cb.Sig = streamSig(insts)
	}
	return ctx.blocks.store(key, cb)
}
