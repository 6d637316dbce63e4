package main

import (
	"fmt"
	"math/rand"
	"time"

	"dcatch/internal/bench"
	"dcatch/internal/core"
	"dcatch/internal/obs"
	"dcatch/internal/rt"
	"dcatch/internal/subjects"
	"dcatch/internal/trigger"
)

// subject-validate: closed loop, one caller. Each job is core.Detect +
// core.ValidateAll on one of the seven registered benchmarks, round-robin,
// under one of the benchmark's schedule seeds — the paper's Table 4 path.
// The workload seed orders each benchmark's schedules. The oracle: every
// ground-truth bug pair is in the final report and the triggering module
// judges it harmful.

const (
	// subjectLimitMs is the frozen latency limit on job_tail_ms.
	subjectLimitMs = 2000
	// subjectTriggerSteps is the per-replay step budget (as in Table 4).
	subjectTriggerSteps = 200_000
	// subjectSchedules is how many schedule seeds each benchmark runs
	// under: its shipped seed and the ones after it. A run of at least
	// that many rounds covers every schedule, so the mix of jobs, and with
	// it every metric, does not hinge on which schedules a seed drew.
	subjectSchedules = 8
	// subjectScheduleRounds is how many rounds set-up lays out; longer runs
	// wrap around.
	subjectScheduleRounds = 32
)

type subjectState struct {
	benches []*subjects.Benchmark
	// seeds[r][i] is benchmark i's schedule seed in round r.
	seeds [][]int64
}

func subjectSetup(seed int64) (*subjectState, error) {
	st := &subjectState{benches: bench.Benchmarks()}
	rng := rand.New(rand.NewSource(seed))
	st.seeds = make([][]int64, subjectScheduleRounds)
	for r := range st.seeds {
		st.seeds[r] = make([]int64, len(st.benches))
	}
	for i, b := range st.benches {
		// DCatch traces correct runs (paper §1.3): a schedule under which
		// the subject fails or hangs is left out.
		var sched []int64
		for off := int64(0); off < subjectSchedules; off++ {
			run, err := rt.Run(b.Workload, rt.Options{Seed: b.Seed + off, MaxSteps: b.MaxSteps})
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", b.ID, b.Seed+off, err)
			}
			if !run.Failed() && !run.Hang {
				sched = append(sched, b.Seed+off)
			}
		}
		if len(sched) == 0 {
			return nil, fmt.Errorf("%s: no correct schedule among %d seeds", b.ID, subjectSchedules)
		}
		rng.Shuffle(len(sched), func(x, y int) { sched[x], sched[y] = sched[y], sched[x] })
		for r := range st.seeds {
			st.seeds[r][i] = sched[r%len(sched)]
		}
	}
	// Warm the interpreter and analysis once per benchmark (untimed by the
	// measured phase, so lazy initialization is set-up cost).
	for i, b := range st.benches {
		res, err := core.Detect(b.Workload, core.Options{Seed: st.seeds[0][i], MaxSteps: b.MaxSteps})
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", b.ID, err)
		}
		if res.Final == nil || len(res.Trace.Recs) == 0 {
			return nil, fmt.Errorf("warm-up %s: empty trace or report", b.ID)
		}
	}
	return st, nil
}

// subjectJob runs one job and checks it against the ground truth. With lt
// non-nil it records the job's spans and counters.
func subjectJob(b *subjects.Benchmark, seed int64, lt *layerTrace) (records int, err error) {
	var rec *obs.Recorder
	if lt != nil {
		rec = obs.New()
	}
	t0 := time.Now()
	res, err := core.Detect(b.Workload, core.Options{Seed: seed, MaxSteps: b.MaxSteps, Obs: rec})
	detectWall := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("%s seed %d: %w", b.ID, seed, err)
	}
	t1 := time.Now()
	vals := core.ValidateAll(res, core.TriggerOptions{MaxSteps: subjectTriggerSteps, Obs: rec})
	validateWall := time.Since(t1)

	if err := checkSubject(b, res, vals); err != nil {
		return 0, fmt.Errorf("%s seed %d: %w", b.ID, seed, err)
	}
	if lt != nil {
		var detectSpans, validateSpans []*node
		for _, n := range fromSpans(rec.Spans(0)) {
			if n.name == "core.trigger_validation" {
				validateSpans = append(validateSpans, n)
			} else {
				detectSpans = append(detectSpans, n)
			}
		}
		lt.job(span("job", time.Since(t0),
			span("core.detect", detectWall, detectSpans...),
			span("trigger.validate_all", validateWall, validateSpans...)))
		lt.c.addAll(rec.Counters())
		lt.c.add("rt.steps", float64(res.Stats.BaseSteps+res.Run.Steps))
		lt.c.add("rt.steps_ms", ms(res.Stats.BaseTime+res.Stats.TracingTime))
		lt.c.add("analysis.ta_pairs", float64(res.Stats.TACallstack))
		lt.c.add("analysis.sp_pairs", float64(res.Stats.SPCallstack))
		for _, v := range vals {
			lt.c.add("trigger.attempts", float64(len(v.Attempts)))
			for _, at := range v.Attempts {
				if at.Result != nil {
					lt.c.add("trigger.steps", float64(at.Result.Steps))
				}
			}
		}
	}
	return res.Stats.TraceRecords, nil
}

// checkSubject is the subject-validate oracle.
func checkSubject(b *subjects.Benchmark, res *core.Result, vals []trigger.Validation) error {
	if res.OOM || res.Final == nil {
		return fmt.Errorf("no final report")
	}
	if found, missing := b.DetectedBugs(res.Final); found != len(b.Bugs) {
		return fmt.Errorf("ground-truth bug pairs missing from the final report: %v", missing)
	}
	for _, kb := range b.Bugs {
		harmful := false
		for i := range vals {
			p := &vals[i].Pair
			if (p.AStatic == kb.A && p.BStatic == kb.B) || (p.AStatic == kb.B && p.BStatic == kb.A) {
				harmful = harmful || vals[i].Verdict == trigger.VerdictHarmful
			}
		}
		if !harmful {
			return fmt.Errorf("bug pair %d/%d (%s) not judged harmful", kb.A, kb.B, kb.Desc)
		}
	}
	return nil
}

// subjectPhase runs whole rounds until at least d has elapsed and at least
// minRounds rounds are done (the tail percentile needs the sample count).
func subjectPhase(st *subjectState, d time.Duration, minRounds, round0 int, res *result, lt *layerTrace) (loopStats, int) {
	var ls loopStats
	start := time.Now()
	r := round0
	for ; r-round0 < minRounds || time.Since(start) < d; r++ {
		row := st.seeds[r%len(st.seeds)]
		for i, b := range st.benches {
			res.Attempted++
			t0 := time.Now()
			n, err := subjectJob(b, row[i], lt)
			if err != nil {
				res.fail("%v", err)
				continue
			}
			ls.Latencies = append(ls.Latencies, msSince(t0))
			ls.Records += int64(n)
		}
	}
	ls.Elapsed = time.Since(start)
	return ls, r
}

func runSubjectValidate(cfg config) (*result, error) {
	st, setupS, err := repeatSetup(cfg.Sizes.SetupReps, func() (*subjectState, error) { return subjectSetup(cfg.Seed) }, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res := &result{Metrics: map[string]float64{"setup_s": setupS}}
	d := time.Duration(cfg.Seconds * float64(time.Second))
	if !cfg.Trace {
		hp := startHeapPeak()
		ls, _ := subjectPhase(st, d, cfg.Sizes.SubjectRounds, 0, res, nil)
		res.Metrics["peak_heap_mb"] = hp.Stop()
		ls.summarize(res, subjectLimitMs)
		return res, nil
	}
	half := max(1, cfg.Sizes.SubjectRounds/2)
	base, next := subjectPhase(st, d/2, half, 0, res, nil)
	lt := newLayerTrace(nil)
	traced, _ := subjectPhase(st, d/2, half, next, res, lt)
	lt.layerMetrics(cfg.Workload, res)
	overhead(res, base.Latencies, traced.Latencies)
	return res, nil
}
