package hb

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"dcatch/internal/trace"
)

func TestBuildChunkedCoversTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomTrace(rng, 100)
	chunks, err := BuildChunked(tr, ChunkConfig{ChunkSize: 30, ChunkOverlap: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 4 {
		t.Fatalf("only %d chunks for 100 records", len(chunks))
	}
	// Windows must tile the trace with the configured stride and overlap.
	for i, c := range chunks {
		if i > 0 && c.Start != chunks[i-1].Start+20 {
			t.Fatalf("chunk %d starts at %d, want stride 20", i, c.Start)
		}
		if c.Start+c.Graph.N() > len(tr.Recs) {
			t.Fatalf("chunk %d overruns the trace", i)
		}
	}
	last := chunks[len(chunks)-1]
	if last.Start+last.Graph.N() != len(tr.Recs) {
		t.Fatal("last chunk does not reach the end of the trace")
	}
	if ChunkedMemBytes(chunks) <= 0 {
		t.Fatal("no memory accounting")
	}
}

// TestChunkWindowsBoundaries pins the window arithmetic every consumer of
// ChunkWindows — batch chunking, the stream window engines, the cluster
// coordinator, and the scan cache's per-window keys — relies on agreeing
// about. Each row also drives the streaming Cutter the way eager Append
// (one record at a time) and Coordinator.Notify (arbitrary fragments) do;
// both must cut the same list.
func TestChunkWindowsBoundaries(t *testing.T) {
	cases := []struct {
		name             string
		n, size, overlap int
		flushes          []int // record counts at which the open window is flushed
		want             [][2]int
	}{
		// A trace shorter than one window is still one window: the cache
		// must key the tail exactly as the batch path scans it.
		{"ShorterThanWindow", 7, 100, 10, nil, [][2]int{{0, 7}}},
		{"ExactlyOneWindow", 100, 100, 10, nil, [][2]int{{0, 100}}},
		// Zero records still produce one empty window, so every path emits
		// a (trivial) scan instead of special-casing emptiness.
		{"ZeroRecords", 0, 100, 10, nil, [][2]int{{0, 0}}},
		// overlap >= size is clamped to size-1: stride 1, never an infinite
		// loop or a zero-length stride.
		{"OverlapEqualsSize", 5, 3, 3, nil, [][2]int{{0, 3}, {1, 4}, {2, 5}}},
		{"OverlapExceedsSize", 5, 3, 7, nil, [][2]int{{0, 3}, {1, 4}, {2, 5}}},
		// overlap <= 0 defaults to size/4.
		{"DefaultOverlap", 200, 100, 0, nil, [][2]int{{0, 100}, {75, 175}, {150, 200}}},
		// An exact multiple of the stride must not emit a zero-length tail.
		{"ExactStrideMultiple", 175, 100, 25, nil, [][2]int{{0, 100}, {75, 175}}},
		// Early flushes: the next window starts overlap records back,
		// clamped to the flushed window's own start (the flush at 10), and
		// a flush at the last record leaves no tail.
		{"EarlyFlush", 200, 100, 0, []int{10, 130, 200},
			[][2]int{{0, 10}, {0, 100}, {75, 130}, {105, 200}}},
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(how string, got [][2]int) {
				t.Helper()
				if len(got) != len(tc.want) {
					t.Fatalf("%s(%d,%d,%d) = %v, want %v", how, tc.n, tc.size, tc.overlap, got, tc.want)
				}
				for i := range got {
					if got[i] != tc.want[i] {
						t.Fatalf("%s(%d,%d,%d) = %v, want %v", how, tc.n, tc.size, tc.overlap, got, tc.want)
					}
				}
			}
			// cut grows the trace to n records through the given fragment
			// boundaries, flushing at tc.flushes.
			cut := func(bounds []int) [][2]int {
				c := NewCutter(tc.size, tc.overlap)
				var got [][2]int
				for _, k := range bounds {
					for {
						w, ok := c.Next(k)
						if !ok {
							break
						}
						got = append(got, w)
					}
					if slices.Contains(tc.flushes, k) {
						if w, ok := c.Flush(k); ok {
							got = append(got, w)
						}
					}
				}
				if w, ok := c.Tail(tc.n); ok {
					got = append(got, w)
				}
				return got
			}
			if tc.flushes == nil {
				check("ChunkWindows", ChunkWindows(tc.n, tc.size, tc.overlap))
			}
			var perRecord []int
			for k := 1; k <= tc.n; k++ {
				perRecord = append(perRecord, k)
			}
			check("Cutter per record", cut(perRecord))
			for rep := 0; rep < 20; rep++ {
				// Random fragment ends, plus every flush point and n.
				bounds := append([]int{tc.n}, tc.flushes...)
				for k := 0; k < tc.n; {
					k += 1 + rng.Intn(2*tc.size+1)
					bounds = append(bounds, min(k, tc.n))
				}
				slices.Sort(bounds)
				check("Cutter fragments", cut(slices.Compact(bounds)))
			}
			got := tc.want
			// Invariants every consumer assumes: full coverage in order,
			// the last window ends at n, and no window is out of range.
			if got[0][0] != 0 || got[len(got)-1][1] != tc.n {
				t.Fatalf("windows %v do not span [0,%d]", got, tc.n)
			}
			for i, w := range got {
				if w[0] > w[1] || w[1] > tc.n {
					t.Fatalf("window %d = %v out of range", i, w)
				}
				if i > 0 && w[0] >= got[i-1][1] && tc.n > 0 {
					t.Fatalf("gap between windows %v and %v", got[i-1], w)
				}
			}
		})
	}
}

func TestChunkedSoundWithinWindow(t *testing.T) {
	// Within a window, chunked HB must agree with the full graph for
	// ordered pairs whose causal chain lies inside the window; and it
	// never invents order the full graph lacks.
	rng := rand.New(rand.NewSource(5))
	tr := randomTrace(rng, 80)
	full, err := Build(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := BuildChunked(tr, ChunkConfig{ChunkSize: 40, ChunkOverlap: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chunks {
		n := ch.Graph.N()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if ch.Graph.HappensBefore(i, j) && !full.HappensBefore(ch.Start+i, ch.Start+j) {
					t.Fatalf("chunk invented order: window (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestChunkedFitsBudgetWhereFullCannot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTrace(rng, 400)
	// A budget the full closure cannot fit: 400 vertices need
	// 400 * ceil(400/64)*8 = 22400 bytes.
	budget := int64(6000)
	if _, err := Build(tr, Config{MemBudget: budget}); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("full build should OOM, got %v", err)
	}
	chunks, err := BuildChunked(tr, ChunkConfig{Base: Config{MemBudget: budget}, ChunkSize: 60})
	if err != nil {
		t.Fatalf("chunked build failed under the same budget: %v", err)
	}
	if ChunkedMemBytes(chunks) > budget {
		t.Fatalf("peak window footprint %d exceeds budget %d", ChunkedMemBytes(chunks), budget)
	}
}

func TestChunkedRejectsBadConfig(t *testing.T) {
	tr := &trace.Trace{QueueConsumers: map[string]int{}}
	if _, err := BuildChunked(tr, ChunkConfig{}); err == nil {
		t.Fatal("zero chunk size accepted")
	}
}
