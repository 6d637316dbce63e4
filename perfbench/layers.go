package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dcatch/internal/obs"
)

// A traced run builds one span tree per job. The benchmark's own spans wrap
// each call into a layer's public functions and handlers; the spans and
// counters the program already exposes (core.Options.Obs recorders,
// GET /v1/jobs/{id}/metrics, the scan-cache and cluster recorders) hang
// below them. Program spans carry no start offsets, so a span's self time
// is its wall time minus the summed wall time of its children, floored at
// zero: where children ran concurrently (pipelined chunk builds and scans,
// parallel window RPCs) the overlap is attributed to the children.

// node is one span of a traced job.
type node struct {
	name     string
	wall     time.Duration
	children []*node
}

func span(name string, wall time.Duration, children ...*node) *node {
	return &node{name: name, wall: wall, children: children}
}

// fromSpans converts exported program spans.
func fromSpans(sd []obs.SpanData) []*node {
	out := make([]*node, 0, len(sd))
	for _, s := range sd {
		out = append(out, &node{name: s.Name, wall: time.Duration(s.WallNs), children: fromSpans(s.Children)})
	}
	return out
}

// layerTrace collects the span trees and counters of one traced phase.
type layerTrace struct {
	mu    sync.Mutex
	jobs  int
	roots []*node
	c     *counterSet
	// override maps span names whose layer depends on the entry point:
	// core.trace_analysis wraps the streaming engine's Finish when reached
	// through core.AnalyzeTrace, but the full-graph stage in core.Detect.
	override map[string]string
}

func newLayerTrace(override map[string]string) *layerTrace {
	return &layerTrace{c: newCounterSet(), override: override}
}

// job records one completed job's tree.
func (lt *layerTrace) job(root *node) {
	lt.mu.Lock()
	lt.jobs++
	lt.roots = append(lt.roots, root)
	lt.mu.Unlock()
}

// extra records a tree that belongs to no single job (for example a
// cluster worker's handler time across the phase).
func (lt *layerTrace) extra(root *node) {
	lt.mu.Lock()
	lt.roots = append(lt.roots, root)
	lt.mu.Unlock()
}

// layerOf maps a span name to its layer; unknown names are harness time
// (job bookkeeping and oracle checks).
func (lt *layerTrace) layerOf(name string) string {
	if l, ok := lt.override[name]; ok {
		return l
	}
	switch name {
	case "core.base_run", "core.traced_run", "core.loop_sync_probe":
		return "rt"
	case "core.static_pruning":
		return "analysis"
	case "core.trigger_validation":
		return "trigger"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		for _, l := range layers {
			if name[:i] == l {
				return l
			}
		}
	}
	return "harness"
}

// walk visits every node with its parent's layer ("" at a root).
func (lt *layerTrace) walk(fn func(n *node, layer, parentLayer string)) {
	var rec func(n *node, parent string)
	rec = func(n *node, parent string) {
		l := lt.layerOf(n.name)
		fn(n, l, parent)
		for _, c := range n.children {
			rec(c, l)
		}
	}
	for _, r := range lt.roots {
		rec(r, "")
	}
}

// spanMs sums the wall time of every span with the given name.
func (lt *layerTrace) spanMs(name string) float64 {
	var sum time.Duration
	lt.walk(func(n *node, _, _ string) {
		if n.name == name {
			sum += n.wall
		}
	})
	return ms(sum)
}

// entryMs sums the wall time of a layer's outermost spans: time spent in
// the layer including whatever it called.
func (lt *layerTrace) entryMs(layer string) float64 {
	var sum time.Duration
	lt.walk(func(n *node, l, parent string) {
		if l == layer && parent != layer {
			sum += n.wall
		}
	})
	return ms(sum)
}

// selfMs is per-layer self time summed over the phase.
func (lt *layerTrace) selfMs() map[string]float64 {
	out := map[string]float64{}
	lt.walk(func(n *node, l, _ string) {
		self := n.wall
		for _, c := range n.children {
			self -= c.wall
		}
		if self < 0 {
			self = 0
		}
		out[l] += ms(self)
	})
	return out
}

// prediction is the interaction table's claim about one workload: which
// layers carry it, and which it bypasses.
type prediction struct {
	dominant []string
	bypassed []string
}

var predictions = map[string]prediction{
	"subject-validate": {
		dominant: []string{"rt", "trigger"},
		bypassed: []string{"stream", "scancache", "serve", "cluster"},
	},
	"trace-1m": {
		dominant: []string{"trace", "hb", "detect", "stream"},
		bypassed: []string{"rt", "trigger", "analysis", "scancache", "serve", "cluster"},
	},
	"serve-incr": {
		dominant: []string{"serve", "trace", "scancache"},
		bypassed: []string{"rt", "trigger", "analysis", "cluster"},
	},
	"cluster-2w": {
		dominant: []string{"cluster", "hb", "detect"},
		bypassed: []string{"rt", "trigger", "analysis", "stream", "scancache", "serve"},
	},
}

// layerMetrics turns the phase's trees and counters into the per-layer
// metrics (per-job means unless the name says otherwise), and checks the
// workload's prediction. Workloads feed the quantities spans cannot give
// (step counts, decode bytes, client-side counts) into lt.c under the
// metric names below before calling it.
func (lt *layerTrace) layerMetrics(workload string, res *result) {
	m := res.Metrics
	jobs := float64(lt.jobs)
	per := func(v float64) float64 { return ratio(v, jobs) }
	sum := func(name string) float64 { return lt.c.sum[name] }
	peak := func(name string) float64 { return lt.c.max[name] }

	rtMs := lt.spanMs("core.base_run") + lt.spanMs("core.traced_run") + lt.spanMs("core.loop_sync_probe")
	m["rt.run_ms"] = per(rtMs)
	m["rt.steps"] = per(sum("rt.steps"))
	m["rt.steps_per_s"] = ratio(sum("rt.steps"), sum("rt.steps_ms")/1000)
	m["trigger.validate_ms"] = per(lt.spanMs("trigger.validate_all"))
	m["trigger.attempts"] = per(sum("trigger.attempts"))
	m["trigger.steps"] = per(sum("trigger.steps"))
	m["analysis.prune_ms"] = per(lt.spanMs("core.static_pruning"))
	m["analysis.kept_ratio"] = ratio(sum("analysis.sp_pairs"), sum("analysis.ta_pairs"))
	for _, s := range coreStages {
		m["core.stage_ms."+s] = per(lt.spanMs("core." + s))
	}
	m["trace.decode_ms"] = per(sum("trace.decode_ms"))
	m["trace.decode_mb_per_s"] = ratio(sum("trace.decode_bytes")/(1<<20), sum("trace.decode_ms")/1000)
	m["trace.encode_ms"] = ratio(sum("trace.encode_ms"), sum("trace.encodes"))
	m["hb.build_ms"] = per(lt.entryMs("hb"))
	m["hb.edges"] = per(sum("hb.edges.total"))
	m["hb.chains"] = per(sum("hb.reach.chains"))
	m["hb.reach_peak_bytes"] = peak("hb.reach.peak_bytes")
	m["detect.scan_ms"] = per(lt.entryMs("detect"))
	m["detect.candidates"] = per(sum("detect.candidates"))
	m["detect.epoch_joins"] = per(sum("detect.epoch.joins"))
	m["stream.windows"] = per(sum("stream.windows"))
	m["stream.finish_ms"] = per(sum("stream.finish_ms"))
	m["stream.peak_live_bytes"] = peak("stream.peak_live_bytes")
	m["scancache.hits"] = per(sum("scancache.hits"))
	m["scancache.misses"] = per(sum("scancache.misses"))
	m["scancache.hit_ratio"] = ratio(sum("scancache.hits"), sum("scancache.hits")+sum("scancache.misses"))
	m["scancache.key_ms"] = per(sum("scancache.key_ms"))
	m["scancache.bytes"] = peak("scancache.bytes")
	m["serve.submit_ms"] = per(lt.spanMs("serve.submit"))
	m["serve.queue_wait_ms"] = per(lt.spanMs("serve.queue_wait"))
	m["serve.admission_wait_ms"] = per(lt.spanMs("serve.admission_wait"))
	m["serve.run_ms"] = per(lt.spanMs("serve.run"))
	m["serve.report_ms"] = per(lt.spanMs("serve.report"))
	m["serve.rejected_429"] = sum("serve.rejected_429")
	m["cluster.worker_scan_ms"] = per(lt.spanMs("cluster.worker_handler"))
	m["cluster.remote_windows"] = per(sum("cluster.windows.remote"))
	m["cluster.local_windows"] = per(sum("cluster.windows.local"))
	m["cluster.busy_retries"] = sum("cluster.retries.busy")
	m["gen.late_max_ms"] = peak("gen.late_ms")

	self := lt.selfMs()
	var total float64
	for _, l := range layers {
		m["self_ms."+l] = per(self[l])
		total += self[l]
	}
	m["self_ms.harness"] = per(self["harness"])

	var shares []string
	for _, l := range layers {
		if self[l] > 0 {
			shares = append(shares, fmt.Sprintf("%s %.1f%%", l, 100*ratio(self[l], total)))
		}
	}
	res.note("traced phase: %d jobs; self time by layer: %s", lt.jobs, strings.Join(shares, ", "))

	// The check: predicted-dominant layers hold most of the self time, and
	// every predicted-bypassed layer shows no time and no work counts.
	pred := predictions[workload]
	misses := 0
	var dom float64
	for _, l := range pred.dominant {
		dom += self[l]
	}
	if share := ratio(dom, total); share > 0.5 {
		res.note("prediction check: %v hold %.1f%% of self time: ok", pred.dominant, 100*share)
	} else {
		misses++
		res.note("prediction check: %v hold only %.1f%% of self time: MISS", pred.dominant, 100*share)
	}
	for _, l := range pred.bypassed {
		var work []string
		for _, d := range perLayer {
			if strings.HasPrefix(d.Name, l+".") && m[d.Name] != 0 {
				work = append(work, d.Name)
			}
		}
		if m["self_ms."+l] != 0 {
			work = append(work, "self_ms."+l)
		}
		sort.Strings(work)
		if len(work) > 0 {
			misses++
			res.note("prediction check: %s predicted bypassed but shows work (%s): MISS", l, strings.Join(work, ", "))
		}
	}
	if misses == 0 {
		res.note("prediction check: bypassed layers %v show zero work: ok", pred.bypassed)
	}
	m["check.prediction_misses"] = float64(misses)
}

// overhead fills the tracing-overhead metrics from an untraced and a traced
// phase of the same run.
func overhead(res *result, base, traced []float64) {
	b, t := median(base), median(traced)
	res.Metrics["overhead.base_job_p50_ms"] = b
	res.Metrics["overhead.traced_job_p50_ms"] = t
	res.Metrics["overhead.job_p50_pct"] = 100 * ratio(t-b, b)
	res.note("tracing overhead: job p50 %.2f ms traced vs %.2f ms untraced (base), %+.2f ms = %+.1f%% (n=%d untraced, %d traced)",
		t, b, t-b, 100*ratio(t-b, b), len(base), len(traced))
}
