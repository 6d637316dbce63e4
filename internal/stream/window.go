package stream

import (
	"runtime"
	"sync/atomic"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/scancache"
	"dcatch/internal/trace"
)

// Eager windowed analysis: the streaming form of the chunked fallback
// (hb.BuildChunked + detect.FindChunked). An hb.Cutter cuts each window the
// moment it fills — or early, at a manual Flush — and the window is scanned
// (scancache.ScanWindow) and merged on arrival; records behind the next
// window's start are then released, so live memory stays around one window
// plus its graph no matter how long the stream runs. With no manual Flush
// the cut list is hb.ChunkWindows' list and each window runs the same scan
// and merge, so Finish is byte-identical to the batch chunked path. Manual
// Flush inserts a boundary the batch oracle reproduces by chunking over
// Windows().

type windowed struct {
	a   *Analyzer
	cut *hb.Cutter

	bufBase int // full-trace index of buf[0]
	buf     []trace.Rec

	merger *detect.ChunkMerger
	closed [][2]int

	peakGraph int64
	backend   string
	err       error
}

func newWindowed(a *Analyzer) *windowed {
	return &windowed{
		a:      a,
		cut:    hb.NewCutter(a.opts.ChunkSize, 0),
		merger: detect.NewChunkMerger(a.opts.Detect),
	}
}

func (w *windowed) append(r trace.Rec) {
	if w.err != nil {
		return // analysis already failed; the result is OOM regardless
	}
	w.buf = append(w.buf, r)
	if win, ok := w.cut.Next(w.bufBase + len(w.buf)); ok {
		w.close(win)
	}
}

// flush closes the open window early.
func (w *windowed) flush() {
	if w.err != nil {
		return
	}
	if win, ok := w.cut.Flush(w.bufBase + len(w.buf)); ok {
		w.close(win)
	}
}

// close analyzes the cut window and releases records behind the next
// window's start.
func (w *windowed) close(win [2]int) {
	// The scan reads a zero-copy view of the live buffer and is done before
	// the copy-down below reuses it.
	buf := &trace.Trace{Program: w.a.tr.Program, Recs: w.buf, QueueConsumers: w.a.tr.QueueConsumers}
	sw, err := w.a.opts.Cache.ScanWindow(buf.Window(win[0]-w.bufBase, win[1]-w.bufBase), win[0], w.a.opts.HB, w.a.opts.Detect)
	if err != nil {
		w.err = err
		w.buf = nil
		return
	}
	if len(w.closed) == 0 {
		w.backend = sw.Backend
	}
	w.peakGraph = max(w.peakGraph, sw.MemBytes)
	w.a.notePeak(sw.MemBytes)
	added := w.merger.Merge(sw.Scan, win[0])
	w.closed = append(w.closed, win)
	w.a.emit(Event{Kind: EventWindow, Records: win[1],
		WindowStart: win[0], WindowEnd: win[1], Added: added})

	// The copy-down keeps the backing array at one window plus overlap.
	if next := w.cut.Start(); next > w.bufBase {
		n := copy(w.buf, w.buf[next-w.bufBase:])
		w.buf = w.buf[:n]
		w.bufBase = next
	}
}

func (w *windowed) finish() *Result {
	n := w.a.count
	if w.err == nil {
		if win, ok := w.cut.Tail(n); ok {
			w.close(win)
		}
	}
	if w.err != nil {
		return &Result{OOM: true, Err: w.err, Chunked: true}
	}
	return &Result{
		Report:     w.merger.Report(),
		Chunked:    true,
		HBVertices: n,
		HBMemBytes: w.peakGraph,
		Backend:    w.backend,
	}
}

// replayWindows is the non-eager fallback: the accumulated trace is cut by
// hb.ChunkWindows and every window runs the eager mode's per-window step
// (scancache.ScanWindow), producing the bytes hb.BuildChunked +
// detect.FindChunked would. Windows flow through one bounded ordered
// pipeline: up to HB.Parallelism windows in flight (1 means one at a time),
// each built and scanned single-threaded on its own goroutine — the
// window-level sharding FindChunked uses — while the merge folds them in
// window order. At most that many window graphs are ever alive at once,
// the transient peak BuildChunked documents. Once a window fails its budget
// no further window is launched; the lowest-index failure is reported, as
// BuildChunked reports it.
func (a *Analyzer) replayWindows() *Result {
	hcfg := a.opts.HB
	bsp := hcfg.Obs.Child("hb.build_chunked")
	hcfg.Obs, hcfg.Parallelism = bsp, 1
	dopts := a.opts.Detect
	fsp := dopts.Obs.Child("detect.find_chunked")
	dopts.Obs = fsp
	windows := hb.ChunkWindows(len(a.tr.Recs), a.opts.ChunkSize, 0)
	bsp.Attr("windows", len(windows))
	bsp.Count("hb.chunk_windows", int64(len(windows)))

	p := a.opts.HB.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	type scanned struct {
		start int
		win   scancache.Window
		err   error
	}
	// One reply channel per launched window, queued in window order; the
	// queue holds every window, so the launcher never waits on the merge.
	launched := make(chan chan scanned, len(windows))
	slots := make(chan struct{}, p)
	var failed atomic.Bool
	go func() {
		defer close(launched)
		for _, wn := range windows {
			slots <- struct{}{}
			// A failing scan sets failed before it frees its slot, so the
			// launcher sees it here and stops.
			if failed.Load() {
				return
			}
			out := make(chan scanned, 1)
			launched <- out
			go func() {
				win, err := a.opts.Cache.ScanWindow(a.tr.Window(wn[0], wn[1]), wn[0], hcfg, dopts)
				if err != nil {
					failed.Store(true)
				}
				<-slots
				out <- scanned{start: wn[0], win: win, err: err}
			}()
		}
	}()

	merger := detect.NewChunkMerger(dopts)
	var ferr error
	var peak int64
	var backend string
	for out := range launched {
		s := <-out
		switch {
		case ferr != nil:
		case s.err != nil:
			ferr = s.err
		default:
			if backend == "" {
				backend = s.win.Backend
			}
			peak = max(peak, s.win.MemBytes)
			merger.Merge(s.win.Scan, s.start)
		}
	}
	bsp.End()
	if ferr != nil {
		fsp.End()
		return &Result{OOM: true, Err: ferr, Chunked: true}
	}
	rep := merger.Report()
	fsp.End()
	return &Result{
		Report:     rep,
		Chunked:    true,
		HBVertices: len(a.tr.Recs),
		HBMemBytes: peak,
		Backend:    backend,
	}
}
