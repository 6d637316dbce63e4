// Command perfbench is the repository's benchmark: four seeded workloads
// driven in-process through the public entry points of the detection
// pipeline, the service, the window-scan cache and the cluster. One run
// measures one workload for a fixed time, checks every report against an
// oracle computed in set-up, prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as human-readable lines, and ends with
// one JSON result line. See README.md for the workloads, metrics and the
// layer/metric interaction table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// sizes are the workload dimensions. The benchmark runs at fullSizes; the
// smoke test shrinks them so `go test` exercises every workload quickly.
type sizes struct {
	// TraceRecords/TraceChunk shape trace-1m and cluster-2w.
	TraceRecords, TraceChunk int
	// ServeRecords/ServeChunk shape every serve-incr upload.
	ServeRecords, ServeChunk int
	// SetupReps is how many times set-up runs; setup_s is their median.
	SetupReps int
	// SubjectRounds is the minimum number of whole round-robin passes over
	// the seven benchmarks in one subject-validate phase.
	SubjectRounds int
	// ProbeJobs is the job count of serve-incr's overload probe phase.
	ProbeJobs int
}

var fullSizes = sizes{
	TraceRecords: 1_000_000, TraceChunk: 50_000,
	ServeRecords: 100_000, ServeChunk: 5_000,
	SetupReps:     3,
	SubjectRounds: 8,
	ProbeJobs:     8,
}

// config is one invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Sizes    sizes
}

// result is what a workload hands back to main.
type result struct {
	Attempted, Failed int
	// Errors describes every failed or wrong job (at most a few kept).
	Errors []string
	// Metrics maps metric name to value; units come from the metric tables.
	Metrics map[string]float64
	// Lines are human-readable notes printed before the JSON line.
	Lines []string
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// workloads maps each name in BENCHMARK.json to the function that runs it.
var workloads = map[string]func(cfg config) (*result, error){
	"subject-validate": runSubjectValidate,
	"trace-1m":         runTrace1M,
	"serve-incr":       runServeIncr,
	"cluster-2w":       runCluster2W,
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: subject-validate, trace-1m, serve-incr, cluster-2w")
	seed := fs.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "measured time per run, in seconds")
	traced := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %v, -seconds > 0, -trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traced == 1, Sizes: fullSizes}
	out, code := execute(cfg)
	fmt.Print(out)
	return code
}

// execute runs one workload and renders its output; the exit code is
// non-zero when the run could not finish or any job failed its oracle.
func execute(cfg config) (string, int) {
	res, err := workloads[cfg.Workload](cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return "", 1
	}
	out, err := emit(cfg, res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return "", 1
	}
	if res.Failed > 0 {
		for _, e := range res.Errors {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", cfg.Workload, e)
		}
		return out, 1
	}
	return out, 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit renders the human-readable lines and the final JSON line. The metric
// set is exactly the end-to-end table (untraced) or the per-layer table
// (traced); a workload that leaves one out is a harness bug.
func emit(cfg config, res *result) (string, error) {
	if res.Attempted < 1 {
		return "", fmt.Errorf("no job attempted")
	}
	table := endToEnd
	if cfg.Trace {
		table = perLayer
	}
	line := resultLine{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]metricValue{},
	}
	var out string
	for _, l := range res.Lines {
		out += cfg.Workload + ": " + l + "\n"
	}
	out += fmt.Sprintf("%s: %-36s %14.4f ratio (%d of %d jobs failed, refused or wrong)\n",
		cfg.Workload, "failed_frac", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, m := range table {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s missing", m.Name)
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		out += fmt.Sprintf("%s: %-36s %14.4f %s\n", cfg.Workload, m.Name, v, m.Unit)
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return "", err
	}
	return out + string(buf) + "\n", nil
}

// msSince is the time since t in milliseconds.
func msSince(t time.Time) float64 { return ms(time.Since(t)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
