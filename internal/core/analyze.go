package core

import (
	"fmt"
	"time"

	"dcatch/internal/obs"
	"dcatch/internal/stream"
	"dcatch/internal/trace"
)

// AnalyzeTrace runs trace analysis alone — HB-graph construction plus
// candidate detection — on an already-collected trace: the paper's "TA"
// column of Table 5. There is no workload and no IR here, so the
// IR-dependent stages (static pruning, the focused loop-sync rerun and
// Rule-Mpull) are skipped and TA, SP and Final all hold the same report.
//
// This is the entry point for traces that arrive from outside the process —
// dcatch-serve's uploaded-trace jobs and dcatch-trace -analyze — where the
// run that produced the trace is not reproducible locally. Options is
// honored for everything that doesn't need the program: HB rule ablation,
// the reachability backend and memory budget, detection tuning, parallelism
// and the chunked-analysis fallback; results are byte-identical to the TA
// stage Detect would compute on the same trace.
func AnalyzeTrace(tr *trace.Trace, opts Options) (*Result, error) {
	if tr == nil {
		return nil, fmt.Errorf("core: AnalyzeTrace: nil trace")
	}
	// The whole stage runs on the streaming engine's batch mode: the full
	// build, and — when the closure exceeds the budget — the windowed replay
	// that supersedes the old BuildChunked+FindChunked fallback with the
	// same bytes at a bounded transient footprint.
	an := stream.New(stream.Options{
		HB: opts.HB, Detect: opts.Detect, ChunkSize: opts.ChunkSize,
		Logf: opts.Obs.Logf, Cache: opts.ScanCache,
	})
	an.AppendTrace(tr)
	return AnalyzeStreamed(an, opts)
}

// AnalyzeStreamed completes a trace analysis whose records were already fed
// into a streaming analyzer — dcatch-serve ingests uploads record by record
// as the body arrives, then hands the analyzer here from the job's run
// closure. The analyzer must be non-eager and must already hold the complete
// trace (an Ingest loop finishes with AppendTrace); the Result is
// byte-identical to AnalyzeTrace over the same records, because AnalyzeTrace
// is this function behind a one-shot ingest.
func AnalyzeStreamed(an *stream.Analyzer, opts Options) (*Result, error) {
	tr := an.Trace()
	if len(tr.Recs) != an.Records() {
		return nil, fmt.Errorf("core: AnalyzeStreamed: analyzer holds %d of %d records (eager mode, or Ingest without AppendTrace)",
			len(tr.Recs), an.Records())
	}
	res := &Result{Trace: tr, seed: opts.Seed}
	rec := opts.Obs
	res.Stats.TraceRecords = len(tr.Recs)
	res.Stats.TraceBytes = tr.EncodedSize()
	rec.Logf("analyze trace %s: %d records", tr.Program, len(tr.Recs))

	if !res.analyzeTrace(an, rec) {
		return res, nil
	}
	res.SP = res.TA
	res.Final = res.TA
	res.Stats.SPStatic, res.Stats.SPCallstack = res.Stats.TAStatic, res.Stats.TACallstack
	res.Stats.LPStatic, res.Stats.LPCallstack = res.Stats.TAStatic, res.Stats.TACallstack
	res.countStage(rec, "final", res.Final)
	return res, nil
}

// analyzeTrace runs the trace-analysis ("TA") stage on an analyzer holding
// the whole trace: the streaming engine's Finish, which is the full build or
// — when the closure exceeds the budget — the chunked window replay. It
// fills r.TA and the HB stats, and returns false when the analysis ran out
// of memory (r.OOM is then set).
func (r *Result) analyzeTrace(an *stream.Analyzer, rec *obs.Recorder) bool {
	sp := rec.Span("core.trace_analysis")
	defer sp.End()
	t0 := time.Now()
	an.SetSpans(sp)
	sr := an.Finish()
	r.Stats.AnalysisTime = time.Since(t0)
	if sr.OOM {
		r.OOM = true
		sp.Attr("oom", true)
		stage := "trace analysis"
		if sr.Chunked {
			stage = "chunked analysis"
		}
		rec.Logf("%s: OUT OF MEMORY (%v)", stage, sr.Err)
		return false
	}
	if sr.Chunked {
		sp.Attr("chunked", true)
	}
	r.TA, r.Chunked, r.Graph = sr.Report, sr.Chunked, sr.Graph
	r.Stats.HBVertices = sr.HBVertices
	r.Stats.HBEdges = sr.HBEdges
	r.Stats.HBMemBytes = sr.HBMemBytes
	r.Stats.ReachBackend = sr.Backend
	r.Stats.TAStatic = r.TA.StaticCount()
	r.Stats.TACallstack = r.TA.CallstackCount()
	r.countStage(rec, "ta", r.TA)
	rec.Logf("trace analysis: %d vertices, %d edges, %d/%d candidates in %v (chunked: %v)",
		sr.HBVertices, sr.HBEdges, r.Stats.TAStatic, r.Stats.TACallstack, r.Stats.AnalysisTime, sr.Chunked)
	return true
}
