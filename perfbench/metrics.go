package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer table.
// TestTablesMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the end-to-end regression bound (share of the parent's
	// median); per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd is every metric an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_tail_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"records_per_s", "1/s", "higher", 0.25},
	{"max_rate_per_s", "1/s", "higher", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.25},
}

// layers are the program's layers in the order the docs list them; a
// traced run attributes every span to one of them (or to the harness).
var layers = []string{"rt", "trigger", "analysis", "core", "trace", "hb", "detect", "stream", "scancache", "serve", "cluster"}

var coreStages = []string{"base_run", "traced_run", "loop_sync_probe", "trace_analysis", "static_pruning", "loop_sync_analysis"}

// perLayer is every metric a traced run prints, on every workload. A layer
// the workload bypasses reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"rt.run_ms", "ms", "lower", 0},
		{"rt.steps", "count", "lower", 0},
		{"rt.steps_per_s", "1/s", "higher", 0},
		{"trigger.validate_ms", "ms", "lower", 0},
		{"trigger.attempts", "count", "lower", 0},
		{"trigger.steps", "count", "lower", 0},
		{"analysis.prune_ms", "ms", "lower", 0},
		{"analysis.kept_ratio", "ratio", "lower", 0},
	}
	for _, s := range coreStages {
		defs = append(defs, metricDef{"core.stage_ms." + s, "ms", "lower", 0})
	}
	defs = append(defs, []metricDef{
		{"trace.decode_ms", "ms", "lower", 0},
		{"trace.decode_mb_per_s", "MB/s", "higher", 0},
		{"trace.encode_ms", "ms", "lower", 0},
		{"hb.build_ms", "ms", "lower", 0},
		{"hb.edges", "count", "lower", 0},
		{"hb.chains", "count", "lower", 0},
		{"hb.reach_peak_bytes", "bytes", "lower", 0},
		{"detect.scan_ms", "ms", "lower", 0},
		{"detect.candidates", "count", "lower", 0},
		{"detect.epoch_joins", "count", "lower", 0},
		{"stream.windows", "count", "lower", 0},
		{"stream.finish_ms", "ms", "lower", 0},
		{"stream.peak_live_bytes", "bytes", "lower", 0},
		{"scancache.hits", "count", "higher", 0},
		{"scancache.misses", "count", "lower", 0},
		{"scancache.hit_ratio", "ratio", "higher", 0},
		{"scancache.key_ms", "ms", "lower", 0},
		{"scancache.bytes", "bytes", "lower", 0},
		{"serve.submit_ms", "ms", "lower", 0},
		{"serve.queue_wait_ms", "ms", "lower", 0},
		{"serve.admission_wait_ms", "ms", "lower", 0},
		{"serve.run_ms", "ms", "lower", 0},
		{"serve.report_ms", "ms", "lower", 0},
		{"serve.rejected_429", "count", "lower", 0},
		{"cluster.worker_scan_ms", "ms", "lower", 0},
		{"cluster.remote_windows", "count", "higher", 0},
		{"cluster.local_windows", "count", "lower", 0},
		{"cluster.busy_retries", "count", "lower", 0},
	}...)
	for _, l := range append(append([]string(nil), layers...), "harness") {
		defs = append(defs, metricDef{"self_ms." + l, "ms", "lower", 0})
	}
	return append(defs, []metricDef{
		{"gen.late_max_ms", "ms", "lower", 0},
		{"overhead.base_job_p50_ms", "ms", "lower", 0},
		{"overhead.traced_job_p50_ms", "ms", "lower", 0},
		{"overhead.job_p50_pct", "%", "lower", 0},
		{"check.prediction_misses", "count", "lower", 0},
	}...)
}()

// median of unsorted values (midpoint of the middle pair for even n).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile that has at least 10 samples
// beyond it, by nearest rank, with its value. Below 20 samples no
// percentile at or above the median qualifies, and the maximum is returned
// as percentile 100 rather than a "tail" below the median.
func tail(v []float64) (pct int, val float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n < 20 {
		return 100, s[n-1]
	}
	pct = 100 * (n - 10) / n
	rank := int(math.Ceil(float64(pct) * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	return pct, s[rank-1]
}

// heapPeak samples the live Go heap (as marked by the last GC) from
// runtime/metrics until stopped, keeping the maximum.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapSampleEvery = 2 * time.Millisecond

// startHeapPeak collects garbage left by set-up, then starts sampling; the
// timed part of the run follows immediately.
func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			if b := sample[0].Value.Uint64(); b > h.peak {
				h.peak = b
			}
		}
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB. It collects once more
// first: the live heap is only known at the end of a GC cycle, and a heap
// that grew since the last cycle would otherwise go unseen.
func (h *heapPeak) Stop() float64 {
	runtime.GC()
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// Set-up repeats at least the configured number of times, and a cheap
// set-up keeps repeating until setupMinTotal has passed (at most
// setupMaxReps times), so its median is not one timer tick.
const (
	setupMinTotal = time.Second
	setupMaxReps  = 25
)

// repeatSetup runs setup at least reps times, keeps the last state, tears
// down the others, and returns the median set-up time in seconds. Every rep
// starts from a collected heap so reps are comparable.
func repeatSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		st    T
		times []float64
		total time.Duration
	)
	for i := 0; i < reps || (total < setupMinTotal && i < setupMaxReps); i++ {
		if i > 0 && teardown != nil {
			teardown(st)
		}
		var zero T
		st = zero
		runtime.GC()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return zero, 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
		st = s
	}
	return st, median(times), nil
}

// loopStats summarizes one measured phase of jobs.
type loopStats struct {
	Latencies []float64 // ms per completed job
	Records   int64     // trace records analyzed by completed jobs
	Elapsed   time.Duration
}

// summarize fills the latency and throughput metrics of a closed loop and
// notes how the tail was taken. limitMs is the workload's frozen latency
// limit: in a closed loop the only offered rate is the completion rate, so
// max_rate_per_s is jobs_per_s when the tail meets the limit, else 0.
func (ls *loopStats) summarize(res *result, limitMs float64) {
	n := len(ls.Latencies)
	sec := ls.Elapsed.Seconds()
	pct, tv := tail(ls.Latencies)
	res.Metrics["job_p50_ms"] = median(ls.Latencies)
	res.Metrics["job_tail_ms"] = tv
	res.Metrics["jobs_per_s"] = float64(n) / sec
	res.Metrics["records_per_s"] = float64(ls.Records) / sec
	res.Metrics["max_rate_per_s"] = 0
	if n > 0 && tv <= limitMs {
		res.Metrics["max_rate_per_s"] = float64(n) / sec
	}
	res.note("closed loop, 1 caller: %d jobs in %.2fs; job_tail_ms is p%d with %d samples beyond (n=%d); latency limit %.0f ms",
		n, sec, pct, beyond(n, pct), n, limitMs)
}

// beyond is how many of n samples lie above the nearest-rank percentile.
func beyond(n, pct int) int {
	return n - int(math.Ceil(float64(pct)*float64(n)/100))
}

// counterSet accumulates program counters across jobs.
type counterSet struct {
	mu  sync.Mutex
	sum map[string]float64
	max map[string]float64
}

func newCounterSet() *counterSet {
	return &counterSet{sum: map[string]float64{}, max: map[string]float64{}}
}

func (c *counterSet) add(name string, v float64) {
	c.mu.Lock()
	c.sum[name] += v
	c.mu.Unlock()
}

func (c *counterSet) atLeast(name string, v float64) {
	c.mu.Lock()
	if v > c.max[name] {
		c.max[name] = v
	}
	c.mu.Unlock()
}

func (c *counterSet) addAll(m map[string]int64) {
	for k, v := range m {
		c.add(k, float64(v))
		c.atLeast(k, float64(v))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
