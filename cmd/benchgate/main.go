// Command benchgate is the CI benchmark-regression gate: it parses `go
// test -bench` output into a machine-readable JSON record and compares
// two such records with benchstat-style thresholds.
//
//	benchgate -parse bench.txt -out bench.json [-note "..."]
//	benchgate -compare -baseline BENCH_baseline.json -current bench.json [-warn 0.10] [-fail 0.25]
//	benchgate -overhead -current bench.json -pairs 'BenchmarkX=BenchmarkXObsv,...' [-fail 0.05]
//
// Parse mode extracts every benchmark's ns/op plus any custom metrics
// (events_per_sec, evals_per_sec, …) and the GOMAXPROCS it ran with (the
// -N name suffix); a benchmark appearing several times keeps its
// fastest run, so repeated bench steps don't inflate noise. The record
// also stores the parsing process's CPU count and Go version, so parse
// on the runner and toolchain that ran the benchmarks. Compare mode checks each baseline benchmark that also ran in
// the current record: a ns/op regression of at least the -warn
// fraction is reported, one of at least the -fail fraction fails the
// gate (exit code 1), and improvements beyond -warn are noted so the
// baseline can be refreshed. A benchmark whose GOMAXPROCS differs
// between the records shows both values. Baseline benchmarks missing from the
// current record warn — a gate that silently stops measuring is worse
// than a slow one. Benchmarks only present in the current record are
// listed as new; they join the gate when the baseline is refreshed:
//
//	go run ./cmd/benchgate -parse bench.txt -out BENCH_baseline.json
//
// Overhead mode gates instrumentation cost within a single record: each
// -pairs entry names an uninstrumented benchmark and its telemetry-
// enabled twin; the twin failing to appear, or running more than the
// -fail fraction slower than its base, fails the gate. Because both
// twins ran in the same process, this gate has no cross-machine skew
// and never downgrades to a warning.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's recorded result.
type Benchmark struct {
	Name    string             `json:"name"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Procs is the GOMAXPROCS the benchmark ran with (0 = not recorded).
	Procs int `json:"procs,omitempty"`
}

// Record is the machine-readable form of one bench run.
type Record struct {
	// Note is free-form provenance (when/why the record was taken).
	Note string `json:"note,omitempty"`
	// CPU echoes the "cpu:" line of the bench output, so cross-machine
	// comparisons are recognizable as such.
	CPU string `json:"cpu,omitempty"`
	// NumCPU and GoVersion describe the process that parsed the output.
	NumCPU     int         `json:"num_cpu,omitempty"`
	GoVersion  string      `json:"go_version,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parseBench reads `go test -bench` text output. Lines it does not
// recognize are ignored, so concatenated multi-step logs parse fine.
func parseBench(r io.Reader) (Record, error) {
	rec := Record{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	idx := make(map[string]int)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			rec.CPU = strings.TrimSpace(cpu)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iteration count, then value/unit pairs.
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		// Split off the -GOMAXPROCS suffix go test appends; it omits
		// the suffix at GOMAXPROCS 1.
		procs := 1
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], n
			}
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		b := Benchmark{Name: name, Procs: procs}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return rec, fmt.Errorf("benchgate: %q: bad value %q", name, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op", "allocs/op":
				// Tracked implicitly via ns/op; skip.
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = v
			}
		}
		if b.NsPerOp == 0 {
			continue
		}
		if j, ok := idx[name]; ok {
			// Fastest run wins; keep the metrics of the run kept.
			if b.NsPerOp < rec.Benchmarks[j].NsPerOp {
				rec.Benchmarks[j] = b
			}
			continue
		}
		idx[name] = len(rec.Benchmarks)
		rec.Benchmarks = append(rec.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return rec, err
	}
	sort.Slice(rec.Benchmarks, func(i, j int) bool { return rec.Benchmarks[i].Name < rec.Benchmarks[j].Name })
	return rec, nil
}

// Comparison is the outcome of gating one record against a baseline.
type Comparison struct {
	Lines  []string // human-readable table rows
	Warned bool     // any regression ≥ warn (or missing benchmark)
	Failed bool     // any regression ≥ fail
}

// compare gates cur against base: ns/op regressions of at least warn
// are flagged, of at least fail they fail the gate.
func compare(base, cur Record, warn, fail float64) Comparison {
	var c Comparison
	curIdx := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curIdx[b.Name] = b
	}
	row := func(format string, args ...any) {
		c.Lines = append(c.Lines, fmt.Sprintf(format, args...))
	}
	row("%-52s %14s %14s %8s  %s", "benchmark", "baseline ns/op", "current ns/op", "delta", "status")
	for _, b := range base.Benchmarks {
		nb, ok := curIdx[b.Name]
		if !ok {
			c.Warned = true
			row("%-52s %14.0f %14s %8s  WARN: missing from current run", b.Name, b.NsPerOp, "-", "-")
			continue
		}
		delete(curIdx, b.Name)
		delta := nb.NsPerOp/b.NsPerOp - 1
		status := "ok"
		switch {
		case delta >= fail:
			status = fmt.Sprintf("FAIL: regression ≥ %.0f%%", fail*100)
			c.Failed = true
		case delta >= warn:
			status = fmt.Sprintf("WARN: regression ≥ %.0f%%", warn*100)
			c.Warned = true
		case delta <= -warn:
			status = "ok (improved; consider refreshing the baseline)"
		}
		if b.Procs != 0 && nb.Procs != 0 && b.Procs != nb.Procs {
			status += fmt.Sprintf(" [procs %d vs %d]", b.Procs, nb.Procs)
		}
		row("%-52s %14.0f %14.0f %+7.1f%%  %s", b.Name, b.NsPerOp, nb.NsPerOp, delta*100, status)
	}
	extra := make([]string, 0, len(curIdx))
	for name := range curIdx {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		row("%-52s %14s %14.0f %8s  new (not gated until baseline refresh)", name, "-", curIdx[name].NsPerOp, "-")
	}
	if base.CPU != "" && cur.CPU != "" && base.CPU != cur.CPU {
		// Cross-hardware ns/op deltas measure skew, not regressions: a
		// baseline recorded on one CPU cannot hard-gate runs on another.
		// Report would-be failures as warnings and tell the operator to
		// refresh the baseline on the current hardware, after which the
		// gate enforces fully again.
		if c.Failed {
			c.Failed = false
			c.Warned = true
			c.Lines = append(c.Lines, "note: regressions downgraded to warnings — refresh BENCH_baseline.json on this hardware to re-arm the gate")
		}
		c.Lines = append(c.Lines, fmt.Sprintf("note: baseline cpu %q != current cpu %q — deltas include hardware skew", base.CPU, cur.CPU))
	}
	switch {
	case c.Failed:
		c.Lines = append(c.Lines, "benchgate: FAIL")
	case c.Warned:
		c.Lines = append(c.Lines, "benchgate: WARN")
	default:
		c.Lines = append(c.Lines, "benchgate: ok")
	}
	return c
}

// benchPair is one base=instrumented twin from an "-pairs" spec.
type benchPair struct {
	base, instr string
}

// parsePairs reads an "-pairs" spec: comma-separated base=instrumented
// benchmark name pairs. The same base may appear in several pairs
// (e.g. a metrics-only twin and a metrics+spans twin).
func parsePairs(spec string) ([]benchPair, error) {
	var pairs []benchPair
	for _, p := range strings.Split(spec, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		base, instr, ok := strings.Cut(p, "=")
		if !ok || base == "" || instr == "" {
			return nil, fmt.Errorf("benchgate: bad pair %q (want base=instrumented)", p)
		}
		pairs = append(pairs, benchPair{base: base, instr: instr})
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("benchgate: -pairs is empty")
	}
	return pairs, nil
}

// overheadGate checks instrumentation cost: for each base=instrumented
// pair, both benchmarks must be present in the record and the
// instrumented twin may be at most the fail fraction slower than its
// base. Both twins run in the same process on the same hardware, so
// unlike compare there is no cross-machine skew to forgive — a missing
// benchmark or an over-budget delta fails the gate.
func overheadGate(rec Record, pairs []benchPair, fail float64) Comparison {
	var c Comparison
	idx := make(map[string]Benchmark, len(rec.Benchmarks))
	for _, b := range rec.Benchmarks {
		idx[b.Name] = b
	}
	row := func(format string, args ...any) {
		c.Lines = append(c.Lines, fmt.Sprintf(format, args...))
	}
	row("%-44s %14s %14s %9s  %s", "pair (instrumented vs base)", "base ns/op", "instr ns/op", "overhead", "status")
	sorted := append([]benchPair(nil), pairs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].base != sorted[j].base {
			return sorted[i].base < sorted[j].base
		}
		return sorted[i].instr < sorted[j].instr
	})
	for _, p := range sorted {
		bb, okB := idx[p.base]
		ib, okI := idx[p.instr]
		if !okB || !okI {
			missing := p.base
			if okB {
				missing = p.instr
			}
			c.Failed = true
			row("%-44s %14s %14s %9s  FAIL: %s missing from record", p.instr, "-", "-", "-", missing)
			continue
		}
		delta := ib.NsPerOp/bb.NsPerOp - 1
		status := "ok"
		if delta >= fail {
			status = fmt.Sprintf("FAIL: overhead ≥ %.0f%%", fail*100)
			c.Failed = true
		}
		row("%-44s %14.0f %14.0f %+8.1f%%  %s", p.instr, bb.NsPerOp, ib.NsPerOp, delta*100, status)
	}
	if c.Failed {
		c.Lines = append(c.Lines, "benchgate: FAIL (instrumentation overhead)")
	} else {
		c.Lines = append(c.Lines, "benchgate: ok (instrumentation overhead within budget)")
	}
	return c
}

func readRecord(path string) (Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return Record{}, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	return rec, nil
}

func main() {
	parse := flag.String("parse", "", "parse `go test -bench` output from this file into JSON")
	out := flag.String("out", "", "write parsed JSON here (default stdout)")
	note := flag.String("note", "", "provenance note stored in the parsed record")
	compareMode := flag.Bool("compare", false, "compare -current against -baseline")
	overhead := flag.Bool("overhead", false, "gate instrumented twin benchmarks against their base within -current")
	pairsSpec := flag.String("pairs", "", "base=instrumented benchmark pairs for -overhead, comma-separated")
	baseline := flag.String("baseline", "BENCH_baseline.json", "baseline record for -compare")
	current := flag.String("current", "bench.json", "current record for -compare")
	warn := flag.Float64("warn", 0.10, "warn at this fractional ns/op regression")
	fail := flag.Float64("fail", 0.25, "fail at this fractional ns/op regression (-compare) or overhead (-overhead)")
	flag.Parse()

	switch {
	case *parse != "":
		f, err := os.Open(*parse)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		rec, err := parseBench(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if len(rec.Benchmarks) == 0 {
			fmt.Fprintln(os.Stderr, "benchgate: no benchmarks found in", *parse)
			os.Exit(2)
		}
		rec.Note = *note
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		data = append(data, '\n')
		if *out == "" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	case *compareMode:
		base, err := readRecord(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cur, err := readRecord(*current)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		c := compare(base, cur, *warn, *fail)
		for _, l := range c.Lines {
			fmt.Println(l)
		}
		if c.Failed {
			os.Exit(1)
		}
	case *overhead:
		pairs, err := parsePairs(*pairsSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cur, err := readRecord(*current)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		c := overheadGate(cur, pairs, *fail)
		for _, l := range c.Lines {
			fmt.Println(l)
		}
		if c.Failed {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
