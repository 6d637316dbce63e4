package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"dcatch/internal/bench"
	"dcatch/internal/core"
	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/serve"
	"dcatch/internal/trace"
)

// serve-incr: open loop into an in-process dcatch-serve on loopback with a
// memory-tier window-scan cache. Each job uploads a 100k-record trace. One
// job in three is a fresh trace (every window misses, so the cache is
// written); the others resubmit an earlier version with 1% of its records
// mutated (about one window misses, so the cache is read). Lineages
// interleave: a resubmission is due serveGap jobs after the version it
// changes, at the reference rate well after that version finished. Fresh
// jobs take 1.4 to 2 times as long as resubmissions; a one-to-one mix would
// put the median on the gap between the two and make it jump between runs.
//
// A run starts with an untimed warm-up: the serveWarm leading uploads,
// all fresh since every later lineage builds on them, sent at the
// reference rate and checked like any other job. Timed, these consecutive
// fresh jobs queued behind one another and opened every sample with a
// burst of slow jobs. Then the run offers two frozen rates: the reference rate for most of the run,
// then a short overload probe. Latency metrics come from the reference
// phase; max_rate_per_s is the completion rate of the highest phase whose
// tail meets serveLimitMs with a backlog that does not grow.

const (
	servePeriod    = 3        // one fresh job in three
	serveGap       = 4        // jobs between a version and its resubmission
	serveWarm      = serveGap // untimed leading jobs: all fresh
	serveRefRate   = 1.8      // jobs/s
	serveProbeRate = 40.0     // jobs/s; above what two lanes can drain even on a fast host
	serveLimitMs   = 1500
	serveMutatePct = 1
	serveJobWait   = 2 * time.Minute
)

type serveVersion struct {
	enc     []byte
	report  []byte // the uncached report, rendered as the service renders it
	records int
	keyMs   float64 // time to key every window (traced runs only)
}

type serveState struct {
	versions []serveVersion
	jopt     serve.JobOptions
	srv      *serve.Server
	hs       *http.Server
	served   chan struct{}
	url      string
	cache    *scancache.Cache
	rec      *obs.Recorder
}

// serveJobCount is how many timed jobs a run submits: the reference phase
// fills the run's seconds minus the probe, which follows it. The warm-up
// comes before both.
func serveJobCount(cfg config) (ref, probe int) {
	probeDur := float64(cfg.Sizes.ProbeJobs) / serveProbeRate
	ref = int(serveRefRate * (cfg.Seconds - probeDur))
	if ref < 2 {
		ref = 2
	}
	return ref, cfg.Sizes.ProbeJobs
}

func serveSetup(cfg config) (*serveState, error) {
	ref, probe := serveJobCount(cfg)
	n := serveWarm + ref + probe
	sz := cfg.Sizes
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Job k is fresh when k < serveGap or k%servePeriod == 0, and otherwise
	// resubmits job k-serveGap with a 1% mutation. So every third job is
	// fresh, fresh jobs never arrive back to back, and a resubmission is
	// due serveGap jobs after the version it changes.
	var chains [][]int // job indexes: a fresh version, then its resubmissions
	seeds := map[int]int64{}
	for k := 0; k < n; k++ {
		if k < serveGap || k%servePeriod == 0 {
			c := []int{k}
			for m := k + serveGap; m < n && m%servePeriod != 0; m += serveGap {
				c = append(c, m)
			}
			chains = append(chains, c)
			seeds[k] = rng.Int63()
		}
	}

	first := bench.SyntheticTraceBounded(sz.ServeRecords, seeds[0])
	budget, err := bench.IncrMemBudget(first, sz.ServeChunk, hb.Config{ReachBackend: hb.BackendChain})
	if err != nil {
		return nil, err
	}
	st := &serveState{
		versions: make([]serveVersion, n),
		jopt:     serve.JobOptions{Reach: "chain", MemBudget: budget, ChunkSize: sz.ServeChunk},
	}
	opts := core.Options{HB: hb.Config{ReachBackend: hb.BackendChain, MemBudget: budget}, ChunkSize: sz.ServeChunk}
	spec, _ := scancache.SpecFor(opts.HB, detect.Options{})

	prepare := func(k int, tr *trace.Trace) error {
		res, err := core.AnalyzeTrace(tr, opts)
		if err != nil {
			return err
		}
		if res.OOM || !res.Chunked {
			return fmt.Errorf("oracle for job %d: oom=%v chunked=%v", k, res.OOM, res.Chunked)
		}
		v := serveVersion{enc: tr.Encode(), report: []byte(serve.RenderTrace(res)), records: len(tr.Recs)}
		if cfg.Trace {
			t0 := time.Now()
			for _, wn := range hb.ChunkWindows(len(tr.Recs), sz.ServeChunk, 0) {
				spec.KeyTrace(tr.Window(wn[0], wn[1]))
			}
			v.keyMs = msSince(t0)
		}
		st.versions[k] = v
		return nil
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
		next    int
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(chains) {
					return
				}
				c := chains[i]
				tr := first
				if c[0] != 0 {
					tr = bench.SyntheticTraceBounded(sz.ServeRecords, seeds[c[0]])
				}
				err := prepare(c[0], tr)
				for _, k := range c[1:] {
					if err != nil {
						break
					}
					tr = bench.MutateTraceSpan(tr, serveMutatePct)
					err = prepare(k, tr)
				}
				if err != nil {
					mu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}

	st.rec = obs.New()
	if st.cache, err = scancache.New(scancache.Config{Obs: st.rec}); err != nil {
		return nil, err
	}
	st.srv = serve.New(serve.Config{ScanCache: st.cache, Obs: st.rec})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Shutdown(context.Background())
		return nil, err
	}
	st.hs = &http.Server{Handler: st.srv.Handler()}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		st.hs.Serve(ln)
	}()
	st.url = "http://" + ln.Addr().String()
	return st, nil
}

func (st *serveState) close() {
	if st == nil || st.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st.srv.Shutdown(ctx)
	st.hs.Close()
	<-st.served
}

// openJob is one scheduled job's outcome; times are from the phase start.
type openJob struct {
	due, start, done time.Duration
	err              error
}

// openPhase submits versions[from:to) at rate jobs/s over at most nproc
// connections (one lane per connection; a job waits for a free lane, which
// shows as generator lateness) and returns once every job has finished.
func (st *serveState) openPhase(from, to int, rate float64, lt *layerTrace) []openJob {
	lanes := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: lanes, MaxIdleConnsPerHost: lanes}
	defer tr.CloseIdleConnections()
	cl := &serve.Client{Base: st.url, HTTP: &http.Client{Transport: tr}}

	jobs := make([]openJob, to-from)
	for i := range jobs {
		jobs[i].due = time.Duration(float64(i) / rate * float64(time.Second))
	}
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				j := &jobs[i]
				if wait := j.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				j.start = time.Since(start)
				j.err = st.serveJob(cl, &st.versions[from+i], lt)
				j.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return jobs
}

// serveJob uploads one version, waits for completion on the job's event
// stream (which the service closes when the job turns terminal, so
// completion is seen within one loopback round trip, with no polling),
// fetches the report and compares it with the uncached oracle.
func (st *serveState) serveJob(cl *serve.Client, v *serveVersion, lt *layerTrace) error {
	t0 := time.Now()
	js, err := cl.SubmitTrace(bytes.NewReader(v.enc), st.jopt)
	submit := time.Since(t0)
	if err != nil {
		if lt != nil && serve.IsBusy(err) {
			lt.c.add("serve.rejected_429", 1)
		}
		return fmt.Errorf("submit: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), serveJobWait)
	defer cancel()
	t1 := time.Now()
	if err := cl.StreamEvents(ctx, js.ID, func(obs.Event) error { return nil }); err != nil {
		return fmt.Errorf("job %s events: %w", js.ID, err)
	}
	wait := time.Since(t1)
	t2 := time.Now()
	rep, err := cl.Report(js.ID)
	report := time.Since(t2)
	if err != nil {
		return fmt.Errorf("job %s report: %w", js.ID, err)
	}
	if !bytes.Equal(rep, v.report) {
		return fmt.Errorf("job %s: report differs from the uncached oracle (%d vs %d bytes)", js.ID, len(rep), len(v.report))
	}
	if lt == nil {
		return nil
	}
	// Telemetry is fetched after the job's clock stopped.
	jm, err := cl.JobMetrics(js.ID)
	if err != nil {
		return fmt.Errorf("job %s metrics: %w", js.ID, err)
	}
	var decode, waitKids []*node
	for _, n := range fromSpans(jm.Spans) {
		switch n.name {
		case "serve.decode":
			decode = append(decode, n)
			lt.c.add("trace.decode_ms", ms(n.wall))
		case "serve.segment":
			if len(decode) > 0 {
				decode[0].children = append(decode[0].children, n)
			}
		case "core.trace_analysis":
			lt.c.add("stream.finish_ms", ms(n.wall))
			if len(waitKids) > 0 && waitKids[len(waitKids)-1].name == "serve.run" {
				waitKids[len(waitKids)-1].children = append(waitKids[len(waitKids)-1].children, n)
			} else {
				waitKids = append(waitKids, n)
			}
		default:
			waitKids = append(waitKids, n)
		}
	}
	lt.job(span("job", time.Since(t0),
		span("serve.submit", submit, decode...),
		span("serve.wait", wait, waitKids...),
		span("serve.report", report)))
	lt.c.addAll(jm.Counters)
	lt.c.add("stream.windows", float64(jm.Counters["hb.chunk_windows"]))
	lt.c.atLeast("stream.peak_live_bytes", float64(jm.Counters["stream.frontier_peak_bytes"]))
	lt.c.add("trace.decode_bytes", float64(len(v.enc)))
	lt.c.add("scancache.key_ms", v.keyMs)
	return nil
}

// phaseReport summarizes one open-loop phase.
type phaseReport struct {
	rate      float64
	latencies []float64
	records   int64
	wall      time.Duration // first due to last completion
	failed    int
	pass      bool
	tailPct   int
	tailMs    float64
}

func (st *serveState) summarize(name string, from int, rate float64, jobs []openJob, res *result) phaseReport {
	pr := phaseReport{rate: rate}
	var late []float64
	for i, j := range jobs {
		res.Attempted++
		late = append(late, ms(j.start-j.due))
		if j.done > pr.wall {
			pr.wall = j.done
		}
		if j.err != nil {
			pr.failed++
			res.fail("%s phase job %d: %v", name, from+i, j.err)
			continue
		}
		pr.latencies = append(pr.latencies, ms(j.done-j.due))
		pr.records += int64(st.versions[from+i].records)
	}
	pr.tailPct, pr.tailMs = tail(pr.latencies)
	grows := backlogGrows(jobs)
	pr.pass = pr.failed == 0 && pr.tailMs <= serveLimitMs && !grows
	sort.Float64s(late)
	res.note("%s phase: %.1f jobs/s offered, %d jobs, p50 %.1f ms, tail p%d %.1f ms (n=%d), limit %d ms, backlog grows=%v, pass=%v; generator late p50 %.1f ms, max %.1f ms",
		name, rate, len(jobs), median(pr.latencies), pr.tailPct, pr.tailMs, len(pr.latencies), serveLimitMs, grows, pr.pass,
		median(late), late[len(late)-1])
	return pr
}

// backlogGrows compares the mean number of jobs outstanding at each due
// time in the second half of the phase with the first half.
func backlogGrows(jobs []openJob) bool {
	if len(jobs) < 4 {
		return false
	}
	outstanding := func(k int) float64 {
		n := 0
		for i := 0; i < k; i++ {
			if jobs[i].done > jobs[k].due {
				n++
			}
		}
		return float64(n)
	}
	var first, second float64
	h := len(jobs) / 2
	for k := 0; k < h; k++ {
		first += outstanding(k)
	}
	for k := h; k < len(jobs); k++ {
		second += outstanding(k)
	}
	return second/float64(len(jobs)-h)-first/float64(h) > 1
}

func runServeIncr(cfg config) (*result, error) {
	st, setupS, err := repeatSetup(cfg.Sizes.SetupReps,
		func() (*serveState, error) { return serveSetup(cfg) },
		func(s *serveState) { s.close() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	res := &result{Metrics: map[string]float64{"setup_s": setupS}}
	warm := serveWarm
	ref, probe := serveJobCount(cfg)
	res.note("%d uploads of %d-record traces (1 in %d fresh, the rest %d%% mutations of the version %d jobs earlier), %d-record windows; %d connections; completion seen on each job's self-terminating event stream",
		len(st.versions), cfg.Sizes.ServeRecords, servePeriod, serveMutatePct, serveGap, cfg.Sizes.ServeChunk, runtime.NumCPU())
	st.summarize("warm-up", 0, serveRefRate, st.openPhase(0, warm, serveRefRate, nil), res)

	if cfg.Trace {
		// No overload probe in a traced run: it compares the reference
		// phase untraced against traced.
		half := warm + ref/2
		base := st.summarize("untraced reference", warm, serveRefRate, st.openPhase(warm, half, serveRefRate, nil), res)
		lt := newLayerTrace(map[string]string{
			"serve.decode": "trace", "serve.segment": "trace", "core.trace_analysis": "stream",
		})
		c0 := st.rec.Counters()
		jobs := st.openPhase(half, warm+ref, serveRefRate, lt)
		traced := st.summarize("traced reference", half, serveRefRate, jobs, res)
		c1 := st.rec.Counters()
		for _, name := range []string{"scancache.hits", "scancache.misses"} {
			lt.c.add(name, float64(c1[name]-c0[name]))
		}
		lt.c.atLeast("scancache.bytes", float64(st.cache.Bytes()))
		for _, j := range jobs {
			lt.c.atLeast("gen.late_ms", ms(j.start-j.due))
		}
		lt.layerMetrics(cfg.Workload, res)
		overhead(res, base.latencies, traced.latencies)
		return res, nil
	}

	hp := startHeapPeak()
	end := warm + ref
	refPhase := st.summarize("reference", warm, serveRefRate, st.openPhase(warm, end, serveRefRate, nil), res)
	probePhase := st.summarize("probe", end, serveProbeRate, st.openPhase(end, end+probe, serveProbeRate, nil), res)
	res.Metrics["peak_heap_mb"] = hp.Stop()

	sec := refPhase.wall.Seconds()
	res.Metrics["job_p50_ms"] = median(refPhase.latencies)
	res.Metrics["job_tail_ms"] = refPhase.tailMs
	res.Metrics["jobs_per_s"] = float64(len(refPhase.latencies)) / sec
	res.Metrics["records_per_s"] = float64(refPhase.records) / sec
	res.Metrics["max_rate_per_s"] = 0
	for _, pr := range []phaseReport{refPhase, probePhase} {
		if pr.pass {
			res.Metrics["max_rate_per_s"] = float64(len(pr.latencies)) / pr.wall.Seconds()
		}
	}
	res.note("max_rate_per_s is the completion rate of the highest passing offered rate; job latency is timed from when the job was due")
	if c := st.rec.Counters(); c["serve.rejected.queue_full"] > 0 {
		res.note("service refused %d submissions (429)", c["serve.rejected.queue_full"])
	}
	return res, nil
}
