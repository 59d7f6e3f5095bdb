package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/obsv"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "root", Start: 0, End: 10},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 3, End: 6},     // overlaps a: union 1..6
		{Trace: 1, ID: 4, Parent: 1, Name: "c", Start: 9, End: 12},    // clipped to the root: 9..10
		{Trace: 1, ID: 5, Parent: 3, Name: "leaf", Start: 4, End: 5},  // b's child
		{Trace: 1, ID: 6, Parent: 1, Name: "empty", Start: 2, End: 2}, // zero length
	}
	got := selfTimes(spans)
	want := []float64{10 - 5 - 1, 3, 2, 3, 1, 0}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("self time of %s = %g, want %g", spans[i].Name, got[i], want[i])
		}
	}
}

func TestFoldAndMedianBand(t *testing.T) {
	// Ten requests; request k takes k+1 ms: 0.5 queued, the rest served.
	var spans []span
	id := int64(0)
	for k := 0; k < 10; k++ {
		dur := float64(k + 1)
		id++
		root := id
		spans = append(spans, span{Trace: int64(k + 1), ID: root, Name: "request", Start: 0, End: dur})
		id++
		spans = append(spans, span{Trace: int64(k + 1), ID: id, Parent: root, Name: "queue", Start: 0, End: 0.5})
		id++
		spans = append(spans, span{Trace: int64(k + 1), ID: id, Parent: root, Name: "serve", Start: 0.5, End: dur})
	}
	selfs := fold(spans)
	if d := selfs["queue"]; len(d) != 10 || d.p50() != 0.5 {
		t.Errorf("queue self times %v, want ten of 0.5", d)
	}
	if d := selfs["request"]; d.p50() != 0 {
		t.Errorf("request self time p50 = %g, want 0 (children tile it)", d.p50())
	}
	if d := selfs["serve"]; d.p50() != 4.5 {
		t.Errorf("serve self time p50 = %g, want 4.5", d.p50())
	}
	stages, p50 := medianBand(spans, "request")
	if p50 != 5 {
		t.Fatalf("median request = %g, want 5", p50)
	}
	// The middle tenth of ten requests is the one at rank 4 (5 ms).
	if !near(stages["queue"], 0.5) || !near(stages["serve"], 4.5) || !near(stages["request"], 0) {
		t.Errorf("typical request stages %v, want queue 0.5, serve 4.5", stages)
	}
	if gap := foldGap(stages, p50); !near(gap, 0) {
		t.Errorf("fold gap = %g, want 0", gap)
	}
	if gap := foldGap(map[string]float64{"a": 4}, 5); !near(gap, 0.2) {
		t.Errorf("fold gap = %g, want 0.2", gap)
	}
	if err := withinTolerance(foldTolerance + 0.01); err == nil {
		t.Error("a gap past the tolerance passed")
	}
}

func TestRegistryWindow(t *testing.T) {
	reg := obsv.NewRegistry()
	c := reg.Counter("spf_repairs_total", "", obsv.L("path", "noop"))
	h := reg.Histogram("go_gc_pause_seconds", "", []float64{0.001, 0.01, 0.1})
	c.Add(5)
	h.Observe(0.0005)
	before := indexSnapshot(reg.Snapshot())
	c.Add(7)
	reg.Counter("spf_repairs_total", "", obsv.L("path", "batch")).Add(3)
	for i := 0; i < 20; i++ {
		h.Observe(0.0005)
	}
	h.Observe(0.05)
	d := regDelta{before, indexSnapshot(reg.Snapshot())}
	if got := d.count("spf_repairs_total", "path", "noop"); got != 7 {
		t.Errorf("noop repairs over the window = %g, want 7", got)
	}
	if got := d.count("spf_repairs_total"); got != 10 {
		t.Errorf("all repairs over the window = %g, want 10", got)
	}
	if got := d.histCount("go_gc_pause_seconds"); got != 21 {
		t.Errorf("pauses over the window = %g, want 21", got)
	}
	// 21 observations: the tail leaves 10 beyond rank 11, in the first bucket.
	if got := d.histTail("go_gc_pause_seconds"); got != 0.001 {
		t.Errorf("pause tail bucket = %g, want 0.001", got)
	}
}

// TestCatalogMatchesBenchmark pins the metric lists the harness prints to
// the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmark(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}
