// Command comabench is the repository benchmark. It runs one workload
// for a fixed time from a seed and prints, as the last line of standard
// output, one JSON object with the run's correctness, its operation
// counts and its metrics: the end-to-end metrics with -trace 0, the
// per-layer metrics of a separate traced run with -trace 1. A
// human-readable summary goes to standard error.
//
//	bash perfbench/run.sh --workload paper-exact --seed 1 --seconds 20 --trace 0
//
// Workloads, metrics and the reasons for them are described in
// perfbench/CHOICES.md. Host timings are valid only on the machine that
// took them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the shared state of one benchmark run: its arguments and the
// report being filled.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// jobs is the simulation parallelism every workload uses: the
	// paper's reproduction and the daemon both get min(2, NumCPU) so a
	// run measures the same work on a bigger machine.
	jobs int
	rep  report
	// notes are printed to standard error after the metrics.
	notes []string
	// tails are the tail latencies a run prints on standard error but
	// not in its JSON result: on a shared host they follow the
	// hypervisor's CPU steal more than the program (see CHOICES.md).
	tails map[string]metric
	// host0 is the CPU accounting at the start of the run.
	host0 hostCPU
	// record makes a batch workload write its reference instead of
	// checking it.
	record bool
}

func (r *run) set(name string, value float64, unit string) {
	r.rep.Metrics[name] = metric{Value: value, Unit: unit}
}

// setLatencies reports one operation class's latencies: the median as a
// metric and tail quantile q among the tails.
func (r *run) setLatencies(class string, lat []float64, q float64, tail string) {
	r.set(class+"_p50_ms", median(lat), "ms")
	r.tails[class+"_"+tail+"_ms"] = metric{Value: quantile(lat, q), Unit: "ms"}
}

// fail records one failed operation with its reason.
func (r *run) fail(format string, args ...any) {
	r.rep.Failed++
	if r.rep.Failed <= 20 {
		r.notes = append(r.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// outDir holds what a run writes: span logs and CPU profiles of traced
// runs. It sits in the build directory the wrapper script uses.
const outDir = ".bench_build"

var workloads = map[string]func(*run) error{
	"paper-exact":         paperExact,
	"scaled-sampled-ring": scaledSampledRing,
	"serve-mixed":         serveMixed,
}

func main() {
	workload := flag.String("workload", "", "workload name: paper-exact, scaled-sampled-ring or serve-mixed")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	record := flag.Bool("record", false, "batch workloads: write the run's output digests and sim counts to "+referencePath+" instead of checking them")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	jobs := runtime.NumCPU()
	if jobs > 2 {
		jobs = 2
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traced == 1,
		jobs:     jobs,
		rep:      report{Correct: true, Metrics: map[string]metric{}},
		tails:    map[string]metric{},
		record:   *record,
	}
	r.host0 = readHostCPU()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	if err := fn(r); err != nil {
		fatalf("%s: %v", r.workload, err)
	}
	if r.rep.Attempted < 1 {
		fatalf("%s: no operation attempted", r.workload)
	}
	if r.rep.Failed > 0 {
		r.rep.Correct = false
	}
	summarize(r)
	out, err := json.Marshal(r.rep)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

// summarize prints every metric, the failure ratio and the notes to
// standard error.
func summarize(r *run) {
	mode := "end-to-end"
	if r.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d %s metrics, jobs=%d, %s\n", r.workload, r.seed, mode, r.jobs, hostLine())
	printMetrics(r.rep.Metrics)
	if len(r.tails) > 0 {
		fmt.Fprintln(os.Stderr, "tail latencies, not in the result (host steal dominates them):")
		printMetrics(r.tails)
	}
	ratio := float64(r.rep.Failed) / float64(r.rep.Attempted)
	fmt.Fprintf(os.Stderr, "  %-32s %16.6g ratio (%d failed of %d attempted)\n", "fail_ratio", ratio, r.rep.Failed, r.rep.Attempted)
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	h := readHostCPU()
	fmt.Fprintf(os.Stderr, "  process CPU %.2f s; host steal %.2f s over %.2f s wall (steal is CPU time the hypervisor gave to other guests)\n",
		(h.process - r.host0.process).Seconds(), (h.steal - r.host0.steal).Seconds(), h.at.Sub(r.host0.at).Seconds())
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "comabench: "+format+"\n", args...)
	os.Exit(1)
}
