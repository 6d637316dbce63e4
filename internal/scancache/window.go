package scancache

import (
	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/trace"
)

// Window is one scanned window: the scan ready for ChunkMerger.Merge plus
// the build facts a report needs.
type Window struct {
	Scan     detect.WindowScan
	Backend  string // resolved hb backend of the window build
	MemBytes int64  // reachability-closure footprint of the window build
	// Payload is the scan's canonical DCWS encoding when one exists: the
	// cached bytes on a hit, the stored bytes after a cached miss, nil when
	// nothing was cached.
	Payload []byte
	Hit     bool // answered from the cache without a build
}

// ScanWindow is the one per-window step every windowed engine runs — the
// eager stream, the chunked replay, the cluster coordinator's local
// fallback and the cluster worker: probe the cache, on a miss build the
// window's HB graph and scan it, then store the scan. view holds the
// window's records — callers pass a zero-copy trace.Window view, which is
// safe because hb.Build never writes records — and start is its first
// record's index in the full trace, used only to name the window in
// errors. A nil *Cache, or options outside the wire-expressible key subset
// (see SpecFor), scan uncached. hcfg and dopts are used as given, except
// that the scan itself runs on one goroutine (detect.ScanGraph). A build
// that exceeds the budget returns the window's hb.ChunkError.
//
// A cached entry under the key was produced by a build with the same
// MemBudget that succeeded; admission is deterministic, so answering from
// the cache cannot hide an OOM this build would have hit.
func (c *Cache) ScanWindow(view *trace.Trace, start int, hcfg hb.Config, dopts detect.Options) (Window, error) {
	var key Key
	spec, cached := SpecFor(hcfg, dopts)
	cached = cached && c != nil
	if cached {
		key = spec.KeyTrace(view)
		if win, ok := c.Lookup(key); ok {
			return win, nil
		}
	}
	g, err := hb.Build(view, hcfg)
	if err != nil {
		return Window{}, hb.ChunkError([2]int{start, start + len(view.Recs)}, err)
	}
	win := Window{Scan: detect.ScanGraph(g, dopts), Backend: g.Backend().String(), MemBytes: g.MemBytes()}
	if cached {
		// Encode before any Merge: merging rebases the scan in place.
		win.Payload = win.Scan.Encode()
		c.Store(key, win, len(view.Recs))
	}
	return win, nil
}

// Lookup returns the window cached under key, freshly decoded — merging
// rebases scans in place, so cached bytes are decoded per use and never
// shared. A payload that fails the decoder is discarded and reported as a
// miss. A nil *Cache always misses.
func (c *Cache) Lookup(key Key) (Window, bool) {
	if c == nil {
		return Window{}, false
	}
	ent, ok := c.Get(key)
	if !ok {
		return Window{}, false
	}
	ws, err := detect.DecodeWindowScan(ent.Payload)
	if err != nil {
		c.Discard(key)
		return Window{}, false
	}
	return Window{Scan: ws, Backend: ent.Backend, MemBytes: ent.MemBytes, Payload: ent.Payload, Hit: true}, true
}

// Store caches a scanned window of the given record count under key;
// win.Payload must hold the scan's canonical encoding. A nil *Cache
// ignores it.
func (c *Cache) Store(key Key, win Window, records int) {
	if c == nil {
		return
	}
	c.Put(key, Entry{Payload: win.Payload, Backend: win.Backend, MemBytes: win.MemBytes, Records: records})
}
