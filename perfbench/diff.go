package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// The diff mode compares two --record files, workload by workload and
// metric by metric: each side's median and quartiles, the share of seed
// pairs the head wins, and a verdict under the rules of the benchmark's
// method (a gain needs nine tenths of the pairs and a median change wider
// than the base's own quartile spread; a regression is a median worse by
// more than the metric's bound).

// benchSpec is the part of BENCHMARK.json the diff needs.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func diffMain(out io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: diff <base.jsonl> <head.jsonl>")
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	base, err := readRecords(args[0])
	if err != nil {
		return err
	}
	head, err := readRecords(args[1])
	if err != nil {
		return err
	}
	keys := map[runKey]bool{}
	for k := range base {
		keys[k] = true
	}
	for k := range head {
		keys[k] = true
	}
	sorted := make([]runKey, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].workload != sorted[j].workload {
			return sorted[i].workload < sorted[j].workload
		}
		return !sorted[i].trace && sorted[j].trace
	})
	for _, k := range sorted {
		list := spec.EndToEnd
		mode := "end-to-end"
		if k.trace {
			list, mode = spec.PerLayer, "per-layer"
		}
		fmt.Fprintf(out, "== %s (%s): %d base runs, %d head runs\n", k.workload, mode, len(base[k]), len(head[k]))
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tbase median [q1, q3]\thead median [q1, q3]\tchange\twins\tverdict")
		for _, sm := range list {
			d := compare(sm, base[k], head[k])
			fmt.Fprintf(tw, "%s\t%s\t%s\t%+.1f%%\t%d/%d\t%s\n", sm.Name, d.base, d.head, 100*d.change, d.wins, d.pairs, d.verdict)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

type runKey struct {
	workload string
	trace    bool
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords groups a record file's runs by workload and mode, keyed by
// seed (a repeated seed keeps its last run).
func readRecords(path string) (map[runKey]map[int64]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[runKey]map[int64]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		k := runKey{r.Workload, r.Trace}
		if out[k] == nil {
			out[k] = map[int64]result{}
		}
		out[k][r.Seed] = r.result
	}
	return out, sc.Err()
}

// summary is one side's distribution of a metric.
type summary struct {
	n              int
	median, q1, q3 float64
}

func (s summary) String() string {
	if s.n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.median, s.q1, s.q3)
}

func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	q1, q3 := quartiles(v)
	return summary{n: len(v), median: median(v), q1: q1, q3: q3}
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method).
func quartiles(v []float64) (float64, float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

type comparison struct {
	base, head  summary
	change      float64 // (head - base) / base median
	wins, pairs int
	verdict     string
}

func compare(sm specMetric, base, head map[int64]result) comparison {
	var bv, hv []float64
	var c comparison
	lower := sm.Better != "higher"
	for seed, b := range base {
		bm, ok := b.Metrics[sm.Name]
		if !ok {
			continue
		}
		bv = append(bv, bm.Value)
		h, ok := head[seed]
		if !ok {
			continue
		}
		hm, ok := h.Metrics[sm.Name]
		if !ok {
			continue
		}
		c.pairs++
		if (lower && hm.Value < bm.Value) || (!lower && hm.Value > bm.Value) {
			c.wins++
		}
	}
	for _, h := range head {
		if hm, ok := h.Metrics[sm.Name]; ok {
			hv = append(hv, hm.Value)
		}
	}
	c.base, c.head = summarize(bv), summarize(hv)
	if c.base.n == 0 || c.head.n == 0 {
		c.verdict = "missing"
		return c
	}
	c.change = ratio(c.head.median-c.base.median, math.Abs(c.base.median))
	worse := c.change
	if !lower {
		worse = -worse
	}
	spread := c.base.q3 - c.base.q1
	switch {
	case c.pairs > 0 && 10*c.wins >= 9*c.pairs && math.Abs(c.head.median-c.base.median) > spread:
		c.verdict = "gain"
	case sm.Bound > 0 && worse > sm.Bound:
		c.verdict = "regression"
	case sm.Bound > 0 && ratio(spread, math.Abs(c.base.median)) > sm.Bound:
		c.verdict = "unresolved"
	case c.head.median == c.base.median:
		c.verdict = "same"
	default:
		c.verdict = "within noise"
	}
	return c
}
