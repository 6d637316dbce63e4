package detect

import "dcatch/internal/obs"

// ChunkMerger folds per-window candidate maps into one global report, one
// window at a time. It is the incremental core of FindChunked, split out so
// the streaming analyzer and the cluster coordinator can merge windows as
// their scans arrive instead of holding every window graph until the end.
// Windows must be merged in ascending start order; the result is then
// byte-identical to FindChunked over the same window list: the first window
// containing a callstack pair provides its representative records, Dynamic
// counts are summed, and the final report is rendered in the canonical
// ascending-representative order.
type ChunkMerger struct {
	sp *obs.Span

	// Each window interns its stacks independently, so its packed-ID keys
	// are not comparable across windows; global re-interns every window's
	// distinct stacks, assigned in window order, so the cross-window merge
	// stays on packed integer keys.
	global  map[string]int32
	merged  map[uint64]*foundPair
	windows int
}

// NewChunkMerger returns an empty merger. Its accounting lands on opts.Obs
// (callers pass their detect.find_chunked span and end it after Report).
func NewChunkMerger(opts Options) *ChunkMerger {
	return &ChunkMerger{sp: opts.Obs, global: map[string]int32{}, merged: map[uint64]*foundPair{}}
}

// WindowScan is one window's scanned-but-unmerged candidate map, opaque to
// callers: ScanGraph produces it (safe to call concurrently), Merge folds it
// in window order, which is what keeps the merged report deterministic.
type WindowScan struct {
	fm  map[uint64]*foundPair
	tab *internTable
}

// Merge folds a scanned window into the global map; windows must arrive in
// ascending start order. Returns how many callstack pairs were new.
func (m *ChunkMerger) Merge(ws WindowScan, start int) int {
	return m.merge(ws.fm, ws.tab, start)
}

// merge folds one window's candidate map into the global one. Remapping
// every window ID onto the shared intern table costs one string lookup per
// distinct stack per window; representative record indices and the rep sort
// key rebase onto the full trace by start (both packed halves shift, and the
// low half cannot carry into the high one — trace indices fit in 32 bits).
func (m *ChunkMerger) merge(fm map[uint64]*foundPair, tab *internTable, start int) int {
	m.windows++
	remap := make([]int32, len(tab.strs))
	for id, s := range tab.strs {
		gid, ok := m.global[s]
		if !ok {
			gid = int32(len(m.global))
			m.global[s] = gid
		}
		remap[id] = gid
	}
	added := 0
	for k, fp := range fm {
		gk := packStackIDs(remap[k>>32], remap[k&0xffffffff])
		if ex, ok := m.merged[gk]; ok {
			ex.pair.Dynamic += fp.pair.Dynamic
			continue
		}
		fp.pair.ARec += start
		fp.pair.BRec += start
		fp.rep += int64(start)<<32 + int64(start)
		m.merged[gk] = fp
		added++
	}
	return added
}

// Report renders the canonical report; the merger must not be used after.
func (m *ChunkMerger) Report() *Report {
	out := reportFromMap(m.merged, m.sp)
	m.sp.Attr("windows", m.windows)
	m.sp.Attr("merged_candidates", len(out.Pairs))
	m.sp.Count("detect.merged_candidates", int64(len(out.Pairs)))
	return out
}
