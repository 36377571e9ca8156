// Command fleetbench is the repository's end-to-end benchmark. It boots an
// in-process serving fleet — one gateway and two single-replica backends on
// loopback listeners — and drives a seeded workload through the gateway's
// HTTP front door: an open-loop fixed-rate phase timed from each request's
// intended send, then a closed-loop saturation phase. Every response body
// is checked byte for byte against a serial oracle computed from public wb
// functions, and the client's counts are reconciled against the gateway's
// and backends' /metrics partitions.
//
// Usage (from the repository root, normally through fleetbench/run.sh):
//
//	fleetbench --workload fresh-short --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run prints every end-to-end metric, and its last
// stdout line is a JSON object carrying the steady ones; with --trace 1 a
// separate traced run carries the per-layer metrics instead. The exit
// status is 0 only when every check passed. See NOTES.md for workloads,
// metrics and the layer mapping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// Default and held-out seeds. Claims are written against DefaultSeed and
// re-checked on HeldOutSeed, which no change may be tuned on.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// buildDir is where the benchmark keeps its build, its fixture cache and
// its span files, relative to the repository root.
const buildDir = ".bench_build/fleetbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: fresh-short, repeat-zipf or long-cascade")
	seed := flag.Int64("seed", DefaultSeed, fmt.Sprintf("workload and model seed (held-out seed: %d)", HeldOutSeed))
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	root := flag.String("root", ".", "repository root (build directory parent)")
	child := flag.Bool("loadgen", false, "run as the load generator child process (internal)")
	flag.Parse()

	if *child {
		if err := loadgenMain(); err != nil {
			fmt.Fprintf(os.Stderr, "fleetbench load generator: %v\n", err)
			os.Exit(2)
		}
		return
	}

	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "fleetbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := options{
		workload: w,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		dir:      filepath.Join(*root, buildDir),
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report collects named metrics in print order and the failed checks.
type report struct {
	out    io.Writer
	names  []string
	values map[string]metric
	errs   []string
}

func newReport(out io.Writer) *report {
	return &report{out: out, values: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string) {
	if _, dup := r.values[name]; !dup {
		r.names = append(r.names, name)
	}
	r.values[name] = metric{Value: v, Unit: unit}
}

// check records a failed check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *report) printf(format string, args ...any) { fmt.Fprintf(r.out, format, args...) }

// print writes the named metrics as aligned "name  value unit" lines.
func (r *report) print(title string, names []string) {
	r.printf("%s\n", title)
	for _, n := range names {
		m := r.values[n]
		r.printf("  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// pick returns the named metrics for the JSON line.
func (r *report) pick(names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		out[n] = r.values[n]
	}
	return out
}
