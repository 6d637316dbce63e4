package detect

import (
	"sync"
	"sync/atomic"

	"dcatch/internal/hb"
)

// FindChunked runs detection over a chunked HB analysis (hb.BuildChunked)
// and merges the per-window candidate maps: the memory-bounded fallback for
// traces whose full reachability closure does not fit (paper §7.2).
// Candidate pairs spanning more than one window are missed — the approach's
// documented trade-off — but a pair concurrent within some window is a true
// candidate of the full graph as well.
//
// Windows are scanned independently — concurrently when Options.Parallelism
// is not 1 — and merged in window order, so the report is deterministic: the
// first window containing a callstack pair provides its representative
// records and Dynamic counts are summed. The merged pairs are rendered in
// the canonical report order (ascending representative records), same as
// Find.
func FindChunked(chunks []hb.Chunk, opts Options) *Report {
	sp := opts.Obs.Child("detect.find_chunked")
	sp.Attr("windows", len(chunks))
	defer sp.End()
	opts.Obs = sp // per-window detect.find spans nest under this one
	maps := make([]map[uint64]*foundPair, len(chunks))
	tabs := make([]*internTable, len(chunks))
	if p := opts.workers(); p > 1 && len(chunks) > 1 {
		if p > len(chunks) {
			p = len(chunks)
		}
		// Window-level workers subsume the per-window parallelism.
		inner := opts
		inner.Parallelism = 1
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < p; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(chunks) {
						return
					}
					maps[i], tabs[i] = findMap(chunks[i].Graph, inner)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range chunks {
			maps[i], tabs[i] = findMap(chunks[i].Graph, opts)
		}
	}

	// The per-window scans are done, so the merge owns every entry and can
	// adopt pointers from the window maps instead of copying pairs. The
	// window-order merge itself lives in ChunkMerger (merge.go), shared with
	// the streaming analyzer and the cluster coordinator.
	m := NewChunkMerger(opts)
	for ci := range chunks {
		m.merge(maps[ci], tabs[ci], chunks[ci].Start)
	}
	return m.Report()
}
