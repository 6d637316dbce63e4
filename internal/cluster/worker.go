package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"dcatch/internal/lifecycle"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/trace"
)

// WorkerConfig configures the worker side of the window-scan RPC.
type WorkerConfig struct {
	// Scans caps concurrent window scans. A request arriving while every
	// slot is busy is answered 429 + Retry-After immediately — the
	// coordinator's backoff, not a server-side queue, absorbs the burst —
	// so a saturated worker stays responsive. Default 1.
	Scans int

	// MaxBodyBytes caps the encoded segment size (default 64 MiB).
	MaxBodyBytes int64

	// Admit, when non-nil, charges the scan against the host's memory
	// gate before any decoding: it blocks until `need` bytes are granted,
	// the context times out (the request is then answered 429), or the
	// gate is closed. The returned release runs when the scan finishes.
	// This is how dcatch-serve makes remote windows count against the
	// same admission budget as local jobs.
	Admit func(ctx context.Context, need int64) (release func(), err error)

	// AdmitTimeout bounds the admission wait (default 2s).
	AdmitTimeout time.Duration

	// Drain, when non-nil, tracks in-flight scans for graceful shutdown;
	// once closing, new scans are refused with 503.
	Drain *lifecycle.Drainer

	// Obs receives cluster.worker.* counters, histograms and spans.
	Obs *obs.Recorder

	// Cache, when non-nil, memoizes window scans across jobs and
	// coordinators: a request whose window records and wire options match a
	// cached entry is answered from the cache without a build, and every
	// fresh scan populates the cache. A hit still takes a scan slot and
	// passes admission like any other request.
	Cache *scancache.Cache
}

// Worker is the http.Handler serving ScanPath. Every request takes one
// path: parse → scan slot → admission → decode → scancache.ScanWindow
// (cache probe, build, scan, store) → reply with the canonical encoded
// detect.WindowScan.
type Worker struct {
	cfg WorkerConfig
	sem chan struct{}
}

// NewWorker builds a worker handler.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Scans <= 0 {
		cfg.Scans = 1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.AdmitTimeout <= 0 {
		cfg.AdmitTimeout = 2 * time.Second
	}
	return &Worker{cfg: cfg, sem: make(chan struct{}, cfg.Scans)}
}

func (w *Worker) busy(rw http.ResponseWriter, counter string) {
	w.cfg.Obs.Count(counter, 1)
	rw.Header().Set("Retry-After", "1")
	http.Error(rw, "cluster: worker busy", http.StatusTooManyRequests)
}

func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if w.cfg.Drain != nil {
		if !w.cfg.Drain.Enter() {
			w.cfg.Obs.Count("cluster.worker.rejected_draining", 1)
			http.Error(rw, "cluster: worker draining", http.StatusServiceUnavailable)
			return
		}
		defer w.cfg.Drain.Exit()
	}
	req, err := parseScanRequest(r.URL.Query())
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	hcfg, dopts, err := req.scanConfigs()
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	default:
		w.busy(rw, "cluster.worker.rejected_busy")
		return
	}
	if w.cfg.Admit != nil {
		ctx, cancel := context.WithTimeout(r.Context(), w.cfg.AdmitTimeout)
		release, err := w.cfg.Admit(ctx, req.MemBudget)
		cancel()
		if err != nil {
			w.busy(rw, "cluster.worker.rejected_admission")
			return
		}
		defer release()
	}
	tr, err := trace.Decode(http.MaxBytesReader(rw, r.Body, w.cfg.MaxBodyBytes))
	if err != nil {
		http.Error(rw, fmt.Sprintf("cluster: bad segment: %v", err), http.StatusBadRequest)
		return
	}

	t0 := time.Now()
	sp := w.cfg.Obs.Span("cluster.worker.scan")
	sp.Attr("window", req.Window)
	sp.Attr("start", req.Start)
	sp.Attr("records", len(tr.Recs))
	hcfg.Obs, dopts.Obs = sp, sp
	win, err := w.cfg.Cache.ScanWindow(tr, req.Start, hcfg, dopts)
	if err != nil {
		sp.End()
		// The coordinator re-runs failed windows locally; a budget-exceeded
		// window will fail there too and surface as the job's OOM result,
		// exactly as the single-node chunked path reports it.
		http.Error(rw, fmt.Sprintf("cluster: window scan failed: %v", err), http.StatusInternalServerError)
		return
	}
	sp.Attr("backend", win.Backend)
	sp.Attr("candidates", win.Scan.Candidates())
	sp.End()
	if win.Hit {
		w.cfg.Obs.Count("cluster.worker.cache_hits", 1)
	} else {
		w.cfg.Obs.Count("cluster.worker.scans", 1)
		w.cfg.Obs.Count("cluster.worker.records", int64(len(tr.Recs)))
		w.cfg.Obs.Observe("cluster.worker.scan_us", time.Since(t0).Microseconds())
	}

	payload := win.Payload
	if payload == nil {
		payload = win.Scan.Encode()
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set(headerBackend, win.Backend)
	rw.Header().Set(headerMemBytes, fmt.Sprint(win.MemBytes))
	rw.Header().Set(headerRecords, fmt.Sprint(len(tr.Recs)))
	rw.Write(payload)
}
