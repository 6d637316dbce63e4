package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// toySizes shrinks every workload so the whole harness runs in seconds.
var toySizes = sizes{
	TraceRecords: 20_000, TraceChunk: 2_000,
	ServeRecords: 6_000, ServeChunk: 1_000,
	SetupReps:     1,
	SubjectRounds: 1,
	ProbeJobs:     2,
}

// TestSmoke runs every workload, untraced and traced, at toy size and
// checks the result line: all oracles pass and the metric set is exactly
// the table for the mode.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := config{Workload: name, Seed: 7, Seconds: 0.3, Trace: traced, Sizes: toySizes}
			out, code := execute(cfg)
			if code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s", name, traced, code, out)
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var rl resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, traced, err)
			}
			if !rl.Correct || rl.Failed != 0 || rl.Attempted < 1 {
				t.Fatalf("%s trace=%v: result %+v", name, traced, rl)
			}
			table := endToEnd
			if traced {
				table = perLayer
			}
			if len(rl.Metrics) != len(table) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", name, traced, len(rl.Metrics), len(table))
			}
			for _, m := range table {
				got, ok := rl.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Fatalf("%s trace=%v: metric %s = %+v", name, traced, m.Name, got)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			if traced && rl.Metrics["check.prediction_misses"].Value != 0 {
				t.Logf("%s: prediction misses at toy size:\n%s", name, out)
			}
		}
	}
}

// TestTablesMatchBenchmarkJSON keeps BENCHMARK.json, which the benchmark
// runner reads, in step with the metric tables and workloads here.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, want %v", names, workloadNames())
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, here %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
