package costs

import (
	"encoding/json"
	"math"
	"testing"
)

// fakeReuse is a deterministic ReuseSource for unit tests.
type fakeReuse []struct {
	op           string
	backend      int
	class        int
	probes, hits int64
}

func (f fakeReuse) Tallies(fn func(op string, backend, class int, probes, hits int64)) {
	for _, r := range f {
		fn(r.op, r.backend, r.class, r.probes, r.hits)
	}
}

func TestShapeClass(t *testing.T) {
	cases := []struct {
		cells int64
		want  int
	}{{-1, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10}, {1 << 40, 40}}
	for _, c := range cases {
		if got := ShapeClass(c.cells); got != c.want {
			t.Errorf("ShapeClass(%d) = %d, want %d", c.cells, got, c.want)
		}
	}
}

func TestCalibrationEpochZero(t *testing.T) {
	c := NewCalibration(Default())
	if c.Epoch() != 0 {
		t.Fatalf("fresh calibration epoch = %d", c.Epoch())
	}
	if *c.Effective() != *Default() {
		t.Fatalf("fresh effective model differs from base")
	}
	if p := c.ReuseProb("mm", 10); p != 0 {
		t.Fatalf("fresh reuse prob = %v", p)
	}
	// Recalibrating with no observations must not advance the epoch.
	if c.Recalibrate(nil) {
		t.Fatalf("empty recalibration changed the snapshot")
	}
}

func TestCalibrationRateRecalibration(t *testing.T) {
	c := NewCalibration(Default())
	// Observe CP running at exactly half the nominal rate: 1e9 flops
	// costing 2e9/50e9 seconds each, for >= minOpSamples ops.
	for i := 0; i < 32; i++ {
		c.ObserveOp("mm", BackendCP, 10, 1e9, 1e9/25e9, 8<<10)
	}
	if !c.Recalibrate(nil) {
		t.Fatalf("recalibration with 32 observations did not change the snapshot")
	}
	if c.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", c.Epoch())
	}
	eff := c.Effective().CPUFlops
	// 25e9 quantized to a quarter-octave bucket: within ~9.1% of 25e9.
	if math.Abs(eff-25e9)/25e9 > 0.1 {
		t.Fatalf("effective CPUFlops = %g, want ~25e9", eff)
	}
	if c.Effective().SparkFlops != Default().SparkFlops {
		t.Fatalf("SparkFlops moved without Spark observations")
	}
	// Same observations again: rate unchanged, epoch stable.
	for i := 0; i < 32; i++ {
		c.ObserveOp("mm", BackendCP, 10, 1e9, 1e9/25e9, 8<<10)
	}
	if c.Recalibrate(nil) {
		t.Fatalf("identical rate distribution advanced the epoch")
	}
}

func TestCalibrationBelowSampleFloor(t *testing.T) {
	c := NewCalibration(Default())
	for i := 0; i < minOpSamples-1; i++ {
		c.ObserveOp("mm", BackendCP, 10, 1e9, 1, 0)
	}
	c.Recalibrate(nil)
	if c.Effective().CPUFlops != Default().CPUFlops {
		t.Fatalf("rate moved below the sample floor")
	}
}

func TestCalibrationReuseProbabilities(t *testing.T) {
	c := NewCalibration(Default())
	src := fakeReuse{
		{"mm", int(BackendSpark), 17, 16, 16}, // every probe hit -> p = 1
		{"tsmm", int(BackendCP), 12, 16, 8},   // half -> p = 0.5
		{"conv2d", int(BackendCP), 12, 4, 4},  // below the probe floor
	}
	if !c.Recalibrate(src) {
		t.Fatalf("tallies did not change the snapshot")
	}
	if p := c.ReuseProb("mm", 17); p != 1 {
		t.Fatalf("mm prob = %v, want 1", p)
	}
	if p := c.ReuseProb("tsmm", 12); p != 0.5 {
		t.Fatalf("tsmm prob = %v, want 0.5", p)
	}
	if p := c.ReuseProb("conv2d", 12); p != 0 {
		t.Fatalf("conv2d prob = %v, want 0 (below sample floor)", p)
	}
	// Probabilities aggregate across backends for the same (op, class).
	c2 := NewCalibration(Default())
	c2.Recalibrate(fakeReuse{
		{"mm", int(BackendCP), 9, 8, 0},
		{"mm", int(BackendSpark), 9, 8, 8},
	})
	if p := c2.ReuseProb("mm", 9); p != 0.5 {
		t.Fatalf("aggregated prob = %v, want 0.5", p)
	}
}

func TestCalibrationDeterministicReplay(t *testing.T) {
	run := func() ([]byte, uint64, uint64) {
		c := NewCalibration(Default())
		for round := 0; round < 5; round++ {
			for i := 0; i < 20; i++ {
				c.ObserveOp("mm", BackendSpark, 20, 5e8, 0.09, 1<<20)
				c.ObserveOp("relu", BackendCP, 14, 2e4, 1e-6, 1<<14)
			}
			c.Recalibrate(fakeReuse{{"mm", int(BackendSpark), 20, int64(16 * (round + 1)), int64(15 * (round + 1))}})
		}
		raw, err := json.Marshal(c.Report())
		if err != nil {
			t.Fatal(err)
		}
		return raw, c.Epoch(), c.Fingerprint()
	}
	r1, e1, f1 := run()
	r2, e2, f2 := run()
	if string(r1) != string(r2) || e1 != e2 || f1 != f2 {
		t.Fatalf("replay diverged: epochs %d/%d fingerprints %x/%x\n%s\n%s", e1, e2, f1, f2, r1, r2)
	}
}

func TestCalibrationReportRows(t *testing.T) {
	c := NewCalibration(Default())
	for i := 0; i < 4; i++ {
		c.ObserveOp("mm", BackendCP, 10, 1e6, 1e-3, 4096)
	}
	c.Recalibrate(fakeReuse{{"mm", int(BackendCP), 10, 8, 6}})
	rep := c.Report()
	if len(rep.Backends) != 3 {
		t.Fatalf("backend rows = %d, want 3", len(rep.Backends))
	}
	if len(rep.Ops) != 1 {
		t.Fatalf("op rows = %d, want 1", len(rep.Ops))
	}
	row := rep.Ops[0]
	if row.Op != "mm" || row.Backend != "CP" || row.Ops != 4 || row.Probes != 8 || row.Hits != 6 {
		t.Fatalf("bad op row: %+v", row)
	}
	if row.HitRate != 0.75 {
		t.Fatalf("hit rate = %v", row.HitRate)
	}
	if row.PredictedSeconds <= 0 || row.ObservedSeconds != 4e-3 {
		t.Fatalf("predicted/observed = %v/%v", row.PredictedSeconds, row.ObservedSeconds)
	}
}

func TestDeriveThresholdsAnchoredAtDefault(t *testing.T) {
	th := DeriveThresholds(Default())
	if th.OpMemBudget != 1<<20 {
		t.Fatalf("OpMemBudget = %d, want %d", th.OpMemBudget, 1<<20)
	}
	if th.GPUMinCells != 4096 {
		t.Fatalf("GPUMinCells = %d, want 4096", th.GPUMinCells)
	}
}

func TestDeriveThresholdsScale(t *testing.T) {
	// Doubling the Spark job overhead doubles the CP/Spark break-even, so
	// the derived operation budget doubles too.
	m := Default()
	m.SparkJobOverhead *= 2
	th := DeriveThresholds(m)
	if th.OpMemBudget != 2<<20 {
		t.Fatalf("OpMemBudget = %d, want %d", th.OpMemBudget, 2<<20)
	}
	if th.GPUMinCells != 4096 {
		t.Fatalf("GPUMinCells moved: %d", th.GPUMinCells)
	}
	// Halving GPU fixed overheads halves the GPU break-even.
	m2 := Default()
	m2.CudaMalloc /= 2
	m2.KernelLaunch /= 2
	m2.CopyLatency /= 2
	if th2 := DeriveThresholds(m2); th2.GPUMinCells != 2048 {
		t.Fatalf("GPUMinCells = %d, want 2048", th2.GPUMinCells)
	}
	// A cluster slower than the driver never breaks even; the anchor holds.
	m3 := Default()
	m3.SparkFlops = m3.CPUFlops / 2
	if th3 := DeriveThresholds(m3); th3.OpMemBudget != 1<<20 {
		t.Fatalf("diverging break-even moved the anchor: %d", th3.OpMemBudget)
	}
}
