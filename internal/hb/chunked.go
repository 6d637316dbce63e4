package hb

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dcatch/internal/trace"
)

// Chunked trace analysis — the mitigation the paper sketches for traces
// whose reachability closure exceeds memory (§7.2: "DCatch will need to
// chunk the traces and conduct detection within each chunk, an approach
// used by previous LCbug detection tools").
//
// The trace is split into windows of ChunkSize records with an overlap of
// ChunkOverlap, and a full HB graph is built per window. Accesses that are
// concurrent within some window are concurrent in the full graph too (a
// window sees a subset of the HB edges, erring toward *more* concurrency),
// so chunking introduces no false negatives within a window span — only
// pairs farther apart than a window are missed, which is the documented
// trade-off of the approach.

// ChunkConfig configures chunked analysis.
type ChunkConfig struct {
	// Base is the per-window HB configuration; Base.MemBudget applies to
	// each window's closure individually.
	Base Config
	// ChunkSize is the window length in records (required, > 0).
	ChunkSize int
	// ChunkOverlap is how many records consecutive windows share;
	// defaults to ChunkSize/4.
	ChunkOverlap int
}

// Chunk is one analyzed window of the trace.
type Chunk struct {
	// Start is the index of the window's first record in the full trace.
	Start int
	// Graph is the window's HB graph; its vertex i corresponds to full
	// trace record Start+i.
	Graph *Graph
}

// ChunkWindows returns the canonical [start, end) window list chunked
// analysis uses for a trace of n records: the windows a Cutter cuts when the
// whole trace is already there. Every consumer of the window decomposition —
// BuildChunked, the streaming analyzer, and the cluster coordinator — derives
// its windows from Cutter, so their merged reports are byte-identical by
// construction.
func ChunkWindows(n, size, overlap int) [][2]int {
	c := NewCutter(size, overlap)
	var windows [][2]int
	for {
		w, ok := c.Next(n)
		if !ok {
			break
		}
		windows = append(windows, w)
	}
	if w, ok := c.Tail(n); ok {
		windows = append(windows, w)
	}
	return windows
}

// Cutter cuts a growing trace into chunk windows of size records, each
// sharing overlap records with its predecessor (overlap defaults to size/4
// and is clamped to size-1). Callers feed it the current record count: Next
// cuts every window that has filled, Flush cuts the open window early, and
// Tail cuts the final partial window once the trace is complete. Fed only
// through Next and Tail it reproduces ChunkWindows for any growth pattern.
type Cutter struct {
	size, overlap int
	start         int // open window's first record
	end           int // end of the last cut window; -1 before the first
}

// NewCutter returns a cutter positioned at record 0.
func NewCutter(size, overlap int) *Cutter {
	if overlap <= 0 {
		overlap = size / 4
	}
	if overlap >= size {
		overlap = size - 1
	}
	return &Cutter{size: size, overlap: overlap, end: -1}
}

// Next cuts the open window if it has filled within the first n records.
// Call it until it reports false: a count that jumped by more than one
// stride fills several windows.
func (c *Cutter) Next(n int) ([2]int, bool) {
	end := c.start + c.size
	if end > n {
		return [2]int{}, false
	}
	return c.emit(end, end-c.overlap), true
}

// Flush cuts the open window early at n records (false when it is empty).
// The next window still starts overlap records back, clamped to the cut
// window's own start, so the boundary keeps the coverage full windows get.
func (c *Cutter) Flush(n int) ([2]int, bool) {
	if n == c.start {
		return [2]int{}, false
	}
	return c.emit(n, max(n-c.overlap, c.start)), true
}

// Tail cuts the final window of an n-record trace: there is one iff no
// window has been cut yet or the last one ended before n.
func (c *Cutter) Tail(n int) ([2]int, bool) {
	if c.end >= n {
		return [2]int{}, false
	}
	return c.emit(n, n), true
}

// Start is the open window's first record; no later window needs a record
// before it.
func (c *Cutter) Start() int { return c.start }

func (c *Cutter) emit(end, next int) [2]int {
	w := [2]int{c.start, end}
	c.start, c.end = next, end
	return w
}

// ChunkError is the error every windowed path reports for a window whose
// graph did not fit the budget: the window's range wrapped around the
// build error.
func ChunkError(w [2]int, err error) error {
	return fmt.Errorf("hb: chunk [%d,%d): %w", w[0], w[1], err)
}

// BuildChunked analyzes the trace window by window. Every window must fit
// the per-window memory budget; window construction failures abort.
//
// Windows are fully independent (each gets its own record copy, Graph, and
// MemBudget), so with Base.Parallelism != 1 they are built concurrently by
// up to that many workers; each window's own closure then runs sequentially
// to keep the total worker count at the configured level. The resulting
// chunk list — and any construction error — is identical to the sequential
// path's: chunks are placed by window index and the lowest-index failure is
// reported.
func BuildChunked(tr *trace.Trace, cfg ChunkConfig) ([]Chunk, error) {
	if cfg.ChunkSize <= 0 {
		return nil, fmt.Errorf("hb: chunk size must be positive, got %d", cfg.ChunkSize)
	}
	sp := cfg.Base.Obs.Child("hb.build_chunked")
	defer sp.End()
	cfg.Base.Obs = sp // per-window hb.build spans nest under this one
	windows := ChunkWindows(len(tr.Recs), cfg.ChunkSize, cfg.ChunkOverlap)

	buildWindow := func(w [2]int, base Config) (Chunk, error) {
		sub := &trace.Trace{
			Program:        tr.Program,
			Recs:           make([]trace.Rec, w[1]-w[0]),
			QueueConsumers: tr.QueueConsumers,
		}
		copy(sub.Recs, tr.Recs[w[0]:w[1]])
		g, err := Build(sub, base)
		if err != nil {
			return Chunk{}, ChunkError(w, err)
		}
		return Chunk{Start: w[0], Graph: g}, nil
	}

	sp.Attr("windows", len(windows))
	sp.Count("hb.chunk_windows", int64(len(windows)))

	p := cfg.Base.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > len(windows) {
		p = len(windows)
	}
	if p <= 1 {
		chunks := make([]Chunk, 0, len(windows))
		for _, w := range windows {
			c, err := buildWindow(w, cfg.Base)
			if err != nil {
				return nil, err
			}
			chunks = append(chunks, c)
		}
		return chunks, nil
	}

	base := cfg.Base
	base.Parallelism = 1
	chunks := make([]Chunk, len(windows))
	errs := make([]error, len(windows))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < p; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(windows) {
					return
				}
				chunks[i], errs[i] = buildWindow(windows[i], base)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return chunks, nil
}

// ChunkedMemBytes reports the peak per-window closure footprint. With
// sequential window construction this is the memory high-water mark of the
// analysis; with Base.Parallelism > 1 the transient peak is up to that many
// windows at once.
func ChunkedMemBytes(chunks []Chunk) int64 {
	var peak int64
	for _, c := range chunks {
		if m := c.Graph.MemBytes(); m > peak {
			peak = m
		}
	}
	return peak
}
