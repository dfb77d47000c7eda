package runtime

import (
	"testing"

	"memphis/internal/data"
	"memphis/internal/dml"
	"memphis/internal/ir"
	"memphis/internal/memplan"
)

// keyCtx builds a context with a fresh block store attached under the given
// program key, with inputs of the given shape bound.
func keyCtx(t *testing.T, progKey uint64, rows, cols int, mutate func(*Config)) *Context {
	t.Helper()
	conf := testConfig(ReuseMemphis)
	if mutate != nil {
		mutate(&conf)
	}
	ctx := New(conf)
	t.Cleanup(func() { ctx.Close() })
	ctx.BindHost("X", data.RandNorm(rows, cols, 0, 1, 1))
	ctx.AttachCompileCache(&BlockStore{}, progKey)
	return ctx
}

// TestBlockKeyComposition is the table-driven key test for the block
// store: every component of the key — program identity, block structure,
// statement literals, input shapes, compiler config, and planner config —
// must separate entries; identical setups must collide.
func TestBlockKeyComposition(t *testing.T) {
	block := func(lit float64) *ir.BasicBlock {
		return ir.BB(ir.Assign("z", ir.Mul(ir.TSMM(ir.Var("X")), ir.Lit(lit))))
	}
	base := func() (*Context, *ir.BasicBlock) { return keyCtx(t, 1, 16, 4, nil), block(2) }

	cases := []struct {
		name  string
		same  bool // whether the variant key must equal the base key
		build func() (*Context, *ir.BasicBlock)
	}{
		{"identical setup", true, base},
		{"different program key", false, func() (*Context, *ir.BasicBlock) {
			return keyCtx(t, 2, 16, 4, nil), block(2)
		}},
		{"different literal", false, func() (*Context, *ir.BasicBlock) {
			return keyCtx(t, 1, 16, 4, nil), block(3)
		}},
		{"different block structure", false, func() (*Context, *ir.BasicBlock) {
			ctx := keyCtx(t, 1, 16, 4, nil)
			return ctx, ir.BB(ir.Assign("z", ir.TSMM(ir.Var("X"))))
		}},
		{"different input shape", false, func() (*Context, *ir.BasicBlock) {
			return keyCtx(t, 1, 32, 4, nil), block(2)
		}},
		{"unbound read variable", false, func() (*Context, *ir.BasicBlock) {
			ctx := keyCtx(t, 1, 16, 4, nil)
			ctx.removeVar("X")
			return ctx, block(2)
		}},
		{"different compiler config", false, func() (*Context, *ir.BasicBlock) {
			return keyCtx(t, 1, 16, 4, func(c *Config) { c.Compiler.OpMemBudget = 1 << 10 }), block(2)
		}},
		{"planner configured", false, func() (*Context, *ir.BasicBlock) {
			return keyCtx(t, 1, 16, 4, func(c *Config) { c.MemPlan = &memplan.Config{Budget: 1 << 20} }), block(2)
		}},
	}

	refCtx, refBB := base()
	ref := refCtx.blockKey(refBB)
	for _, tc := range cases {
		ctx, bb := tc.build()
		got := ctx.blockKey(bb)
		if tc.same && got != ref {
			t.Errorf("%s: key %016x != base %016x, want equal", tc.name, got, ref)
		}
		if !tc.same && got == ref {
			t.Errorf("%s: key collides with base (%016x)", tc.name, got)
		}
	}

	// Different planner budgets must not share planned streams.
	a, bbA := keyCtx(t, 1, 16, 4, func(c *Config) { c.MemPlan = &memplan.Config{Budget: 1 << 20} }), block(2)
	b, bbB := keyCtx(t, 1, 16, 4, func(c *Config) { c.MemPlan = &memplan.Config{Budget: 1 << 16} }), block(2)
	if a.blockKey(bbA) == b.blockKey(bbB) {
		t.Error("different memplan budgets must produce distinct block keys")
	}
}

// TestWhileConditionReusesStoredBlock runs a 200-iteration DML while loop:
// the block-key memo and the block store must stay bounded by the number
// of distinct blocks (initializer, condition, body), not grow with the
// iteration count, and every iteration after the first must hit the store.
func TestWhileConditionReusesStoredBlock(t *testing.T) {
	prog, err := dml.Parse("i = 0\ns = 0\nwhile (i < 200) {\n  i = i + 1\n  s = s + i\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	ctx := New(testConfig(ReuseMemphis))
	defer ctx.Close()
	if err := ctx.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	if got := ctx.ensureHost(ctx.Var("s")).ScalarValue(); got != 20100 {
		t.Fatalf("s = %g, want 20100", got)
	}
	st := ctx.blocks.StatsSnapshot()
	if len(ctx.bbKeys) != 3 || len(ctx.condBlocks) != 1 || st.Entries != 3 {
		t.Fatalf("memo %d blocks, %d conditions, store %d entries; want 3, 1, 3",
			len(ctx.bbKeys), len(ctx.condBlocks), st.Entries)
	}
	// One initializer execution, 201 condition evaluations, 200 bodies.
	if st.Lookups != 402 || st.Hits != 399 {
		t.Fatalf("store lookups/hits = %d/%d, want 402/399", st.Lookups, st.Hits)
	}
}

// TestBlockStoreFirstWriterWins: a racing second store of a key adopts the
// resident block, so every session executes the same shared object.
func TestBlockStoreFirstWriterWins(t *testing.T) {
	s := &BlockStore{}
	first, second := &CompiledBlock{}, &CompiledBlock{}
	if _, hit := s.load(7); hit {
		t.Fatal("empty store hit")
	}
	if got := s.store(7, first); got != first {
		t.Fatal("first store must publish its block")
	}
	if got := s.store(7, second); got != first {
		t.Fatal("second store must adopt the resident block")
	}
	if cb, hit := s.load(7); !hit || cb != first {
		t.Fatal("load must return the resident block")
	}
	want := BlockStoreStats{Lookups: 2, Hits: 1, Stores: 1, Entries: 1, Shards: blockStoreShards}
	if st := s.StatsSnapshot(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}
