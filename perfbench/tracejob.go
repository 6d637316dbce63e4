package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"dcatch/internal/bench"
	"dcatch/internal/cluster"
	"dcatch/internal/core"
	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/trace"
)

// trace-1m and cluster-2w analyze the same pre-encoded 1M-record
// bench.SyntheticTraceBounded trace on the chain backend, with a budget
// from bench.IncrMemBudget that forces 50k-record windows. trace-1m runs
// trace.Decode + core.AnalyzeTrace (no scan cache); cluster-2w runs
// trace.Decode + a cluster.Coordinator over two loopback cluster.Worker
// peers. Both are closed loops with one caller, and both must reproduce
// the report set-up computed with the all-pairs quadratic scan.

const (
	// traceLimitMs is the frozen latency limit on job_tail_ms.
	traceLimitMs = 10_000
	// Seed-1 reference: the quadratic oracle's callstack-pair count on the
	// full-size trace. A change here means the generator or the detector
	// changed what it reports, not just how fast.
	referenceSeed  = 1
	referencePairs = 18528
)

type traceState struct {
	enc      []byte
	records  int
	hcfg     hb.Config
	chunk    int
	digest   [32]byte
	pairs    int
	encodeMs float64
	pool     *workerPool // cluster-2w only
}

func traceSetup(cfg config, withWorkers bool) (*traceState, error) {
	sz := cfg.Sizes
	tr := bench.SyntheticTraceBounded(sz.TraceRecords, cfg.Seed)
	t0 := time.Now()
	enc := tr.Encode()
	st := &traceState{enc: enc, records: len(tr.Recs), chunk: sz.TraceChunk, encodeMs: msSince(t0)}

	hcfg := hb.Config{ReachBackend: hb.BackendChain}
	budget, err := bench.IncrMemBudget(tr, sz.TraceChunk, hcfg)
	if err != nil {
		return nil, err
	}
	hcfg.MemBudget = budget
	st.hcfg = hcfg

	oracle, err := core.AnalyzeTrace(tr, core.Options{
		HB: hcfg, ChunkSize: sz.TraceChunk,
		Detect: detect.Options{Scan: detect.ScanQuadratic},
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if oracle.OOM || !oracle.Chunked {
		return nil, fmt.Errorf("oracle: budget %d did not yield a chunked analysis (oom=%v)", budget, oracle.OOM)
	}
	st.digest = sha256.Sum256([]byte(oracle.TA.Format(nil)))
	st.pairs = oracle.TA.CallstackCount()
	if cfg.Seed == referenceSeed && sz == fullSizes && st.pairs != referencePairs {
		return nil, fmt.Errorf("oracle: %d callstack pairs at seed %d, reference is %d", st.pairs, referenceSeed, referencePairs)
	}
	if withWorkers {
		if st.pool, err = startWorkers(2, false); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (st *traceState) close() {
	if st != nil && st.pool != nil {
		st.pool.close()
	}
}

// verify compares a job's report with the oracle.
func (st *traceState) verify(rep *detect.Report) error {
	if rep == nil {
		return fmt.Errorf("no report")
	}
	if got := sha256.Sum256([]byte(rep.Format(nil))); got != st.digest {
		return fmt.Errorf("report differs from the quadratic oracle (%d pairs, oracle %d)", rep.CallstackCount(), st.pairs)
	}
	return nil
}

// decode is the timed trace.Decode step every job starts with.
func (st *traceState) decode(lt *layerTrace) (*trace.Trace, *node, error) {
	t0 := time.Now()
	tr, err := trace.Decode(bytes.NewReader(st.enc))
	wall := time.Since(t0)
	if err != nil {
		return nil, nil, fmt.Errorf("decode: %w", err)
	}
	if lt != nil {
		lt.c.add("trace.decode_ms", ms(wall))
		lt.c.add("trace.decode_bytes", float64(len(st.enc)))
	}
	return tr, span("trace.decode", wall), nil
}

// analyzeJob is one trace-1m job.
func (st *traceState) analyzeJob(lt *layerTrace) (int, error) {
	t0 := time.Now()
	tr, dec, err := st.decode(lt)
	if err != nil {
		return 0, err
	}
	var rec *obs.Recorder
	if lt != nil {
		rec = obs.New()
	}
	t1 := time.Now()
	res, err := core.AnalyzeTrace(tr, core.Options{HB: st.hcfg, ChunkSize: st.chunk, Obs: rec})
	analyzeWall := time.Since(t1)
	if err != nil {
		return 0, err
	}
	if res.OOM || !res.Chunked {
		return 0, fmt.Errorf("analysis: oom=%v chunked=%v", res.OOM, res.Chunked)
	}
	if err := st.verify(res.TA); err != nil {
		return 0, err
	}
	if lt != nil {
		counters := rec.Counters()
		lt.job(span("job", time.Since(t0), dec, span("core.analyze_trace", analyzeWall, fromSpans(rec.Spans(0))...)))
		lt.c.addAll(counters)
		lt.c.add("stream.windows", float64(counters["hb.chunk_windows"]))
		lt.c.add("stream.finish_ms", ms(res.Stats.AnalysisTime))
		lt.c.atLeast("stream.peak_live_bytes", float64(res.Stats.HBMemBytes))
	}
	return len(tr.Recs), nil
}

// clusterJob is one cluster-2w job. Each peer gets one request at a time
// and each worker has two scan slots, so the steady state never sees a 429
// (cluster.busy_retries stays reported).
func (st *traceState) clusterJob(pool *workerPool, lt *layerTrace) (int, error) {
	t0 := time.Now()
	tr, dec, err := st.decode(lt)
	if err != nil {
		return 0, err
	}
	var rec *obs.Recorder
	if lt != nil {
		rec = obs.New()
	}
	t1 := time.Now()
	coord, err := cluster.NewCoordinator(cluster.Config{
		Peers: pool.urls, ChunkSize: st.chunk, HB: st.hcfg, InFlight: 1, Obs: rec,
	})
	if err != nil {
		return 0, err
	}
	coord.Notify(tr)
	cres := coord.Finish(tr)
	coordWall := time.Since(t1)
	if cres.OOM {
		return 0, fmt.Errorf("cluster job: %v", cres.Err)
	}
	if err := st.verify(cres.Report); err != nil {
		return 0, err
	}
	if lt != nil {
		lt.job(span("job", time.Since(t0), dec, span("cluster.job", coordWall, fromSpans(rec.Spans(0))...)))
		lt.c.addAll(rec.Counters())
	}
	return len(tr.Recs), nil
}

// closedLoop runs job back to back until d has elapsed.
func closedLoop(d time.Duration, res *result, job func() (int, error)) loopStats {
	var ls loopStats
	start := time.Now()
	for time.Since(start) < d {
		res.Attempted++
		t0 := time.Now()
		n, err := job()
		if err != nil {
			res.fail("%v", err)
			continue
		}
		ls.Latencies = append(ls.Latencies, msSince(t0))
		ls.Records += int64(n)
	}
	ls.Elapsed = time.Since(start)
	return ls
}

func runTrace1M(cfg config) (*result, error) {
	return runTraceWorkload(cfg, false)
}

func runCluster2W(cfg config) (*result, error) {
	return runTraceWorkload(cfg, true)
}

func runTraceWorkload(cfg config, clustered bool) (*result, error) {
	st, setupS, err := repeatSetup(cfg.Sizes.SetupReps,
		func() (*traceState, error) { return traceSetup(cfg, clustered) },
		func(s *traceState) { s.close() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	res := &result{Metrics: map[string]float64{"setup_s": setupS}}
	res.note("%d-record trace (%d encoded bytes), %d-record windows, budget %d bytes; oracle %d callstack pairs",
		st.records, len(st.enc), st.chunk, st.hcfg.MemBudget, st.pairs)
	job := func(lt *layerTrace, pool *workerPool) func() (int, error) {
		if clustered {
			return func() (int, error) { return st.clusterJob(pool, lt) }
		}
		return func() (int, error) { return st.analyzeJob(lt) }
	}
	d := time.Duration(cfg.Seconds * float64(time.Second))
	if !cfg.Trace {
		hp := startHeapPeak()
		ls := closedLoop(d, res, job(nil, st.pool))
		res.Metrics["peak_heap_mb"] = hp.Stop()
		ls.summarize(res, traceLimitMs)
		return res, nil
	}
	base := closedLoop(d/2, res, job(nil, st.pool))
	lt := newLayerTrace(map[string]string{"core.trace_analysis": "stream"})
	lt.c.add("trace.encode_ms", st.encodeMs)
	lt.c.add("trace.encodes", 1)
	pool := st.pool
	if clustered {
		if pool, err = startWorkers(2, true); err != nil {
			return nil, err
		}
		defer pool.close()
	}
	traced := closedLoop(d/2, res, job(lt, pool))
	if clustered {
		pool.record(lt)
	}
	lt.layerMetrics(cfg.Workload, res)
	overhead(res, base.Latencies, traced.Latencies)
	return res, nil
}

// workerPool is a set of in-process window-scan workers on loopback
// listeners — the handler dcatch-serve -worker mounts.
type workerPool struct {
	urls    []string
	servers []*http.Server
	wg      sync.WaitGroup
	timed   []*timedWorker // traced pools only
}

// timedWorker wraps the public worker handler to time each request.
type timedWorker struct {
	h   http.Handler
	rec *obs.Recorder
	mu  sync.Mutex
	sum time.Duration
}

func (t *timedWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(t0)
	t.mu.Lock()
	t.sum += d
	t.mu.Unlock()
}

func startWorkers(n int, traced bool) (*workerPool, error) {
	p := &workerPool{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.close()
			return nil, err
		}
		var h http.Handler
		if traced {
			rec := obs.New()
			tw := &timedWorker{h: cluster.NewWorker(cluster.WorkerConfig{Scans: 2, Obs: rec}), rec: rec}
			p.timed = append(p.timed, tw)
			h = tw
		} else {
			h = cluster.NewWorker(cluster.WorkerConfig{Scans: 2})
		}
		mux := http.NewServeMux()
		mux.Handle("POST "+cluster.ScanPath, h)
		hs := &http.Server{Handler: mux}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			hs.Serve(ln)
		}()
		p.servers = append(p.servers, hs)
		p.urls = append(p.urls, "http://"+ln.Addr().String())
	}
	return p, nil
}

// record adds each worker's handler time, spans and counters to lt.
func (p *workerPool) record(lt *layerTrace) {
	for _, tw := range p.timed {
		tw.mu.Lock()
		wall := tw.sum
		tw.mu.Unlock()
		lt.extra(span("cluster.worker_handler", wall, fromSpans(tw.rec.Spans(0))...))
		lt.c.addAll(tw.rec.Counters())
	}
}

// close stops every server and waits for their serve loops to return.
func (p *workerPool) close() {
	for _, hs := range p.servers {
		hs.Close()
	}
	p.wg.Wait()
}
