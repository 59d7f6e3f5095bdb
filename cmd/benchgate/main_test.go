package main

import (
	"runtime"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkScenarioRunnerSerial30-8         	       1	27215938 ns/op	 1292928 B/op	     633 allocs/op
BenchmarkScenarioRunner8Workers30-8       	       1	 7690880 ns/op	 1345648 B/op	     700 allocs/op
BenchmarkPhase1Incremental-8              	       3	 4404336 ns/op	      1509 evals_per_sec
BenchmarkRepairVsDijkstra/FullDijkstra-8  	     300	   56186 ns/op	       0 B/op	       0 allocs/op
BenchmarkRepairVsDijkstra/Repair-8        	     300	    3123 ns/op	       0 B/op	       0 allocs/op
BenchmarkSelectorAdvise-8                 	      20	 5881731 ns/op	       340.0 events_per_sec	   34007 B/op	      83 allocs/op
PASS
`

func parseSample(t *testing.T, text string) Record {
	t.Helper()
	rec, err := parseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestParseBench(t *testing.T) {
	rec := parseSample(t, sampleBench)
	if len(rec.Benchmarks) != 6 {
		t.Fatalf("parsed %d benchmarks, want 6: %+v", len(rec.Benchmarks), rec.Benchmarks)
	}
	if rec.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu = %q", rec.CPU)
	}
	byName := make(map[string]Benchmark)
	for _, b := range rec.Benchmarks {
		byName[b.Name] = b
	}
	if b := byName["BenchmarkRepairVsDijkstra/Repair"]; b.NsPerOp != 3123 {
		t.Fatalf("sub-benchmark: %+v", b)
	}
	if b := byName["BenchmarkSelectorAdvise"]; b.NsPerOp != 5881731 || b.Metrics["events_per_sec"] != 340 {
		t.Fatalf("metrics not parsed: %+v", b)
	}
	if _, ok := byName["BenchmarkScenarioRunnerSerial30-8"]; ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}

	// A repeated benchmark keeps its fastest run.
	again := parseSample(t, sampleBench+"BenchmarkSelectorAdvise-8  20  4000000 ns/op  350.0 events_per_sec\n")
	for _, b := range again.Benchmarks {
		if b.Name == "BenchmarkSelectorAdvise" && (b.NsPerOp != 4000000 || b.Metrics["events_per_sec"] != 350) {
			t.Fatalf("repeated benchmark did not keep fastest run: %+v", b)
		}
	}
}

// TestParseAndReportProcs: parse records each benchmark's GOMAXPROCS
// (the -N suffix; none means 1) and the parsing process's CPU count and
// Go version, and compare shows both sides' procs where they differ
// without changing the verdict.
func TestParseAndReportProcs(t *testing.T) {
	base := parseSample(t, sampleBench)
	if base.NumCPU != runtime.NumCPU() || base.GoVersion != runtime.Version() {
		t.Fatalf("record environment = %d CPUs, %q", base.NumCPU, base.GoVersion)
	}
	for _, b := range base.Benchmarks {
		if b.Procs != 8 {
			t.Fatalf("%s: procs = %d, want 8", b.Name, b.Procs)
		}
	}
	cur := parseSample(t, strings.ReplaceAll(sampleBench, "BenchmarkSelectorAdvise-8 ", "BenchmarkSelectorAdvise-2 "))
	one := parseSample(t, "BenchmarkSelectorAdvise  20  5881731 ns/op\n")
	if p := one.Benchmarks[0].Procs; p != 1 {
		t.Fatalf("unsuffixed benchmark: procs = %d, want 1", p)
	}
	c := compare(base, cur, 0.10, 0.25)
	if c.Failed || c.Warned {
		t.Fatalf("a procs change alone moved the verdict:\n%s", strings.Join(c.Lines, "\n"))
	}
	marked := 0
	for _, l := range c.Lines {
		if strings.Contains(l, "[procs") {
			marked++
			if !strings.HasPrefix(l, "BenchmarkSelectorAdvise ") || !strings.Contains(l, "[procs 8 vs 2]") {
				t.Fatalf("procs shown on the wrong row or in the wrong form: %q", l)
			}
		}
	}
	if marked != 1 {
		t.Fatalf("procs shown on %d rows, want 1:\n%s", marked, strings.Join(c.Lines, "\n"))
	}
}

// shift rebuilds the sample record with every ns/op scaled by factor —
// a synthetic uniform regression (or improvement).
func shift(rec Record, factor float64) Record {
	out := Record{CPU: rec.CPU, Benchmarks: make([]Benchmark, len(rec.Benchmarks))}
	copy(out.Benchmarks, rec.Benchmarks)
	for i := range out.Benchmarks {
		out.Benchmarks[i].NsPerOp *= factor
	}
	return out
}

// TestCompareGate is the gate's acceptance check: the unchanged tree
// passes, a synthetic ≥25% regression fails, a 15% one only warns, and
// an improvement passes with a refresh hint.
func TestCompareGate(t *testing.T) {
	base := parseSample(t, sampleBench)

	if c := compare(base, base, 0.10, 0.25); c.Failed || c.Warned {
		t.Fatalf("identical records did not pass cleanly:\n%s", strings.Join(c.Lines, "\n"))
	}
	if c := compare(base, shift(base, 1.30), 0.10, 0.25); !c.Failed {
		t.Fatalf("30%% regression did not fail:\n%s", strings.Join(c.Lines, "\n"))
	}
	if c := compare(base, shift(base, 1.15), 0.10, 0.25); c.Failed || !c.Warned {
		t.Fatalf("15%% regression should warn, not fail:\n%s", strings.Join(c.Lines, "\n"))
	}
	c := compare(base, shift(base, 0.70), 0.10, 0.25)
	if c.Failed || c.Warned {
		t.Fatalf("improvement flagged:\n%s", strings.Join(c.Lines, "\n"))
	}
	if !strings.Contains(strings.Join(c.Lines, "\n"), "refreshing the baseline") {
		t.Fatal("improvement did not hint at a baseline refresh")
	}

	// Exactly one benchmark regressing past the fail bar fails the gate
	// even when everything else improves.
	one := shift(base, 0.95)
	one.Benchmarks[2].NsPerOp = base.Benchmarks[2].NsPerOp * 1.26
	if c := compare(base, one, 0.10, 0.25); !c.Failed {
		t.Fatal("single-benchmark regression did not fail")
	}
}

// TestCompareCrossHardware pins the skew rule: when the baseline was
// recorded on a different CPU, ns/op deltas measure hardware skew, so
// would-be failures downgrade to warnings with a refresh hint. On
// matching CPUs the gate stays armed.
func TestCompareCrossHardware(t *testing.T) {
	base := parseSample(t, sampleBench)
	cur := shift(base, 1.40)
	cur.CPU = "AMD EPYC 7763 64-Core Processor"
	c := compare(base, cur, 0.10, 0.25)
	if c.Failed {
		t.Fatalf("cross-hardware regression hard-failed:\n%s", strings.Join(c.Lines, "\n"))
	}
	if !c.Warned {
		t.Fatal("cross-hardware regression not warned")
	}
	out := strings.Join(c.Lines, "\n")
	if !strings.Contains(out, "hardware skew") || !strings.Contains(out, "re-arm the gate") {
		t.Fatalf("skew downgrade not explained:\n%s", out)
	}
	// Same-CPU 40% regression still fails (the gate is only disarmed by
	// a hardware mismatch, not by the downgrade path existing).
	if c := compare(base, shift(base, 1.40), 0.10, 0.25); !c.Failed {
		t.Fatal("same-hardware regression no longer fails")
	}
}

// TestCompareCoverage pins the gate's no-silent-shrinkage rules: a
// baseline benchmark missing from the current run warns, and a new
// benchmark is listed but not gated.
func TestCompareCoverage(t *testing.T) {
	base := parseSample(t, sampleBench)
	cur := Record{CPU: base.CPU, Benchmarks: base.Benchmarks[:len(base.Benchmarks)-1]}
	c := compare(base, cur, 0.10, 0.25)
	if c.Failed || !c.Warned {
		t.Fatalf("missing benchmark should warn:\n%s", strings.Join(c.Lines, "\n"))
	}
	if !strings.Contains(strings.Join(c.Lines, "\n"), "missing from current run") {
		t.Fatal("missing benchmark not reported")
	}

	grown := Record{CPU: base.CPU, Benchmarks: append(append([]Benchmark{}, base.Benchmarks...),
		Benchmark{Name: "BenchmarkNew", NsPerOp: 42})}
	c = compare(base, grown, 0.10, 0.25)
	if c.Failed || c.Warned {
		t.Fatalf("new benchmark must not gate:\n%s", strings.Join(c.Lines, "\n"))
	}
	if !strings.Contains(strings.Join(c.Lines, "\n"), "BenchmarkNew") {
		t.Fatal("new benchmark not listed")
	}
}

// TestOverheadGate pins the instrumentation-cost gate: within-budget
// twins pass, an over-budget twin fails, and a missing twin fails (the
// gate never silently stops measuring).
func TestOverheadGate(t *testing.T) {
	rec := Record{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000},
		{Name: "BenchmarkAObsv", NsPerOp: 1020},
		{Name: "BenchmarkB", NsPerOp: 2000},
		{Name: "BenchmarkBObsv", NsPerOp: 2400},
	}}
	pairs, err := parsePairs("BenchmarkA=BenchmarkAObsv")
	if err != nil {
		t.Fatal(err)
	}
	if c := overheadGate(rec, pairs, 0.05); c.Failed {
		t.Fatalf("2%% overhead failed a 5%% gate:\n%s", strings.Join(c.Lines, "\n"))
	}

	// One base may anchor several twins (metrics-only and metrics+spans)
	// — every pair must be gated, not just the last parsed.
	shared := Record{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000},
		{Name: "BenchmarkAObsv", NsPerOp: 1020},
		{Name: "BenchmarkASpans", NsPerOp: 1300},
	}}
	pairs, err = parsePairs("BenchmarkA=BenchmarkAObsv,BenchmarkA=BenchmarkASpans")
	if err != nil {
		t.Fatal(err)
	}
	c0 := overheadGate(shared, pairs, 0.05)
	if !c0.Failed {
		t.Fatalf("over-budget second twin of a shared base passed:\n%s", strings.Join(c0.Lines, "\n"))
	}
	out := strings.Join(c0.Lines, "\n")
	if !strings.Contains(out, "BenchmarkAObsv") || !strings.Contains(out, "BenchmarkASpans") {
		t.Fatalf("shared-base twins not both gated:\n%s", out)
	}

	pairs, err = parsePairs("BenchmarkA=BenchmarkAObsv,BenchmarkB=BenchmarkBObsv")
	if err != nil {
		t.Fatal(err)
	}
	c := overheadGate(rec, pairs, 0.05)
	if !c.Failed {
		t.Fatalf("20%% overhead passed a 5%% gate:\n%s", strings.Join(c.Lines, "\n"))
	}
	if !strings.Contains(strings.Join(c.Lines, "\n"), "FAIL: overhead") {
		t.Fatalf("over-budget pair not reported:\n%s", strings.Join(c.Lines, "\n"))
	}

	pairs, err = parsePairs("BenchmarkA=BenchmarkMissing")
	if err != nil {
		t.Fatal(err)
	}
	if c := overheadGate(rec, pairs, 0.05); !c.Failed {
		t.Fatal("missing twin must fail the gate")
	}

	if _, err := parsePairs("malformed"); err == nil {
		t.Fatal("malformed pair spec must error")
	}
	if _, err := parsePairs(""); err == nil {
		t.Fatal("empty pair spec must error")
	}
}
