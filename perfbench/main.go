// Command perfbench is the repository's benchmark. It drives one seeded
// workload through the public functions of internal/gen, internal/mtx,
// internal/partition, internal/gearbox, internal/apps and internal/serve,
// checks every output against the CPU references in internal/apps, and
// prints its metrics by name with their units. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload pr-twitter -seed 1 -seconds 20 -trace 0
//
// -trace 0 reports the end-to-end metrics; -trace 1 runs the same request
// list with every other request traced through the hooks the program
// exposes, reports the per-layer metrics, and writes the spans as
// chrome://tracing JSON under -out. README.md lists the metrics, the
// workloads and why each exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool // small inputs, for the smoke tests
	out      string
}

// report is what a workload hands back: request counts, the metrics of the
// run's mode, and extra steadiness-record fields.
type report struct {
	attempted, failed int
	// problems lists every failed check: output mismatches, fence
	// violations, unbalanced span sums. Any entry makes correct false.
	problems []string
	metrics  map[string]float64
	record   map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, record: map[string]any{}}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps a workload name to its driver.
var workloads = map[string]func(options) (*report, error){
	"pr-twitter": runPRTwitter,
	"bfs-road":   runBFSRoad,
	"serve-mix":  runServeMix,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: pr-twitter, bfs-road or serve-mix")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: matrices, sources and mix order derive from it")
	fs.IntVar(&o.seconds, "seconds", 20, "sizes the fixed request list to about this many seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.BoolVar(&o.tiny, "tiny", false, "tiny inputs (smoke tests)")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for the ingested .mtx file and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload pr-twitter|bfs-road|serve-mix, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	o.trace = trace == 1
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	load0 := loadAvg1()
	rep, err := drive(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res, err := newResult(defs, rep.metrics, rep.attempted, rep.failed, len(rep.problems) == 0)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}

	rec := rep.record
	rec["workload"], rec["seed"], rec["seconds"], rec["trace"] = o.workload, o.seed, o.seconds, o.trace
	rec["nproc"], rec["gomaxprocs"], rec["go"] = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	rec["loadavg1_start"], rec["loadavg1_end"] = load0, loadAvg1()
	rec["problems"] = rep.problems
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-28s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	recLine, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: record:", err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n", recLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
