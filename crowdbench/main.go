// Command crowdbench is crowdscope's end-to-end benchmark. It runs one
// named workload against the real layers — the crowdserved HTTP service
// under open-loop load, or the offline crowdgen/crowdquery/crowdrepro
// pipeline — checks every answer, and prints its metrics by name with
// their units. See README.md for the workloads and what each metric
// should move.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash crowdbench/run.sh --workload live-dashboard --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, measured by a separate traced pass whose spans are
// written under .bench_build/spans. Earlier lines carry the run's stamp
// (host shape and configuration) and every figure the workload measures,
// including those only it has.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"crowdscope/internal/synth"
)

// endToEnd and perLayer are the metrics the result line carries; every
// workload reports each of them. They must match BENCHMARK.json.
var endToEnd = map[string]string{
	"setup_s":            "s",
	"query_p50_ms":       "ms",
	"query_tail_ms":      "ms",
	"heap_bytes_per_row": "B/row",
}

var perLayer = map[string]string{
	"synth.generate_s":              "s",
	"lang.parse_us":                 "us",
	"query.compile_us":              "us",
	"query.exec_p50_us":             "us",
	"query.exec_tail_us":            "us",
	"query.scan_ns_per_row":         "ns/row",
	"query.rows_scanned_per_match":  "ratio",
	"query.segments_pruned_ratio":   "ratio",
	"runtime.alloc_bytes_per_query": "B/query",
}

// Input size. At scale 0.02 seeds generate 670K-910K rows. A seed's
// inventory predicts its volume — the answers its sampled batches solicit,
// items times redundancy — so scaling 0.02 by targetAnswers over that
// count brings every seed to 750K-770K rows and keeps per-request work
// from following the seed.
const (
	baseScale     = 0.02
	targetAnswers = 30e6
)

// sizedConfig returns the generator configuration of a seed, sized.
func sizedConfig(seed uint64) synth.Config {
	var answers float64
	for _, b := range synth.Inventory(synth.Config{Seed: seed, Scale: baseScale}).Batches {
		if b.Sampled {
			answers += float64(b.Items) * float64(b.Redundancy)
		}
	}
	return synth.Config{Seed: seed, Scale: baseScale * targetAnswers / answers}
}

// workRoot holds everything a run writes; it lies inside the checkout
// the benchmark runs from.
const workRoot = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's outcome.
type report struct {
	attempted, failed int64
	problems          []string // wrong answers and failed checks; any fails the run
	metrics           map[string]metric
	stamp             map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, stamp: map[string]any{}}
}

// set records a metric. A tail reached by failures is +Inf and reads as
// the largest float; NaN means a metric had nothing to measure, which is
// a defect of the run.
func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) {
		r.problem("metric %s is not a number", name)
		return
	}
	r.metrics[name] = metric{Value: finite(v), Unit: unit}
}

// problem records a wrong answer or a failed check; it fails the run.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     uint64
	gen      synth.Config // the seed's generator configuration, sized
	seconds  int
	trace    bool
	work     string // per-run scratch directory
}

var workloads = map[string]func(options, *report) error{
	"live-dashboard": runDashboard,
	"analyst-scan":   runAnalyst,
	"repro-batch":    runRepro,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crowdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "live-dashboard, analyst-scan or repro-batch")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runW, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "crowdbench: need --workload (live-dashboard, analyst-scan, repro-batch), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	opt := options{workload: *workload, seed: *seed, gen: sizedConfig(*seed), seconds: *seconds, trace: *trace == 1}
	opt.work = filepath.Join(workRoot, "tmp", fmt.Sprintf("%s-%d-%d", opt.workload, opt.seed, os.Getpid()))
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "crowdbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(opt.work)

	rep := newReport()
	rep.stamp["workload"] = opt.workload
	rep.stamp["seed"] = opt.seed
	rep.stamp["seconds"] = opt.seconds
	rep.stamp["trace"] = *trace
	rep.stamp["nproc"] = runtime.NumCPU()
	rep.stamp["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.stamp["go"] = runtime.Version()
	rep.stamp["goos"] = runtime.GOOS
	rep.stamp["goarch"] = runtime.GOARCH
	rep.stamp["scale"] = opt.gen.Scale
	start := time.Now()
	if err := runW(opt, rep); err != nil {
		fmt.Fprintf(stderr, "crowdbench: %s: %v\n", opt.workload, err)
		return 1
	}
	rep.stamp["wall_s"] = time.Since(start).Seconds()
	line, err := rep.result(opt.trace)
	if err != nil {
		fmt.Fprintf(stderr, "crowdbench: %v\n", err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "crowdbench: %s: %s\n", opt.workload, p)
	}
	for _, v := range []any{map[string]any{"stamp": rep.stamp}, map[string]any{"report": rep.metrics}} {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(stderr, "crowdbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	fmt.Fprintln(stdout, string(line))
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// result renders the last line: the declared metrics of the mode, each
// one present, and the run's counts.
func (r *report) result(traced bool) ([]byte, error) {
	want := endToEnd
	if traced {
		want = perLayer
	}
	out := map[string]metric{}
	var missing []string
	for name, unit := range want {
		m, ok := r.metrics[name]
		if !ok || m.Unit != unit {
			missing = append(missing, name)
			continue
		}
		out[name] = m
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("workload did not measure %v", missing)
	}
	if r.attempted < 1 {
		return nil, errors.New("no operations attempted")
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, out})
}
