// Command perfbench is the MEMPHIS reproduction's benchmark. One invocation
// runs one workload from a seed for a fixed number of seconds, checks every
// fetched output bitwise against a reference run of the same seed under the
// Base preset, and prints every end-to-end metric (or, with --trace 1, every
// per-layer metric) by name and unit. The last line of standard output is a
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hband-cp --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh diff base.jsonl head.jsonl
//
// See README.md for the workloads, the metrics and which module each
// per-layer metric belongs to.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a --record file: a result tagged with the run that
// produced it, the input of the diff mode.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// runConfig is what every workload runner receives.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
}

// workloadRunners maps each workload name to its runner. A runner returns
// the report of one invocation; operation failures are counted in the
// report, and only a broken set-up returns an error.
var workloadRunners = map[string]func(runConfig) (*report, error){
	"hband-cp":   func(c runConfig) (*report, error) { return runPipeline(hbandCP, c) },
	"pnmf-spark": func(c runConfig) (*report, error) { return runPipeline(pnmfSpark, c) },
	"en2de-fine": func(c runConfig) (*report, error) { return runPipeline(en2deFine, c) },
	"serve-zipf": runServe,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		if err := diffMain(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench diff:", err)
			os.Exit(2)
		}
		return
	}
	if err := benchMain(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	recordPath := fs.String("record", "", "append the result as a JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, ok := workloadRunners[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	rep, err := run(runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1})
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	rep.print(out, *name, *seed)
	res := rep.result(*trace == 1)
	if *recordPath != "" {
		if err := appendRecord(*recordPath, record{Workload: *name, Seed: *seed, Trace: *trace == 1, result: res}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadRunners))
	for n := range workloadRunners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("record: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	return nil
}
