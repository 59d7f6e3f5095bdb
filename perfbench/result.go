package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type metricSpec struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run prints, on every workload.
// BENCHMARK.json carries the same list with bounds (TestCatalogMatchesBenchmark).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"time_to_result_p50_ms", "ms"},
	{"cpu_ms_per_result", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics a -trace 1 run prints, on every workload; a
// layer a workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"dtrd.observe_ack_p50_ms", "ms"},
	{"dtrd.observe_ack_tail_ms", "ms"},
	{"dtrd.advise_rtt_p50_ms", "ms"},
	{"dtrd.plan_rtt_p50_ms", "ms"},
	{"dtrd.non_202", "count"},
	{"dtrd.refused_frac", "ratio"},
	{"dtrd.tta_link_tail_ms", "ms"},
	{"dtrd.cpu_us_per_event", "us"},
	{"dtrd.tta_demand_tail_ms", "ms"},
	{"fleet.enqueue_us_per_event", "us"},
	{"fleet.wal_append_us_per_event", "us"},
	{"fleet.wal_bytes_per_event", "B"},
	{"fleet.checkpoints", "count"},
	{"fleet.checkpoint_ms_mean", "ms"},
	{"ingest.queue_wait_p50_ms", "ms"},
	{"ingest.queue_wait_tail_ms", "ms"},
	{"ingest.deliveries", "count"},
	{"ingest.delivery_events_mean", "count"},
	{"ingest.coalesce_us_per_event", "us"},
	{"ingest.coalesce_out_frac", "ratio"},
	{"ingest.shed_events", "count"},
	{"ctrl.observe_link_ms_p50", "ms"},
	{"ctrl.observe_demand_ms_p50", "ms"},
	{"ctrl.fanout_cpu_per_wall", "ratio"},
	{"ctrl.dedup_frac", "ratio"},
	{"ctrl.applied_eps", "1/s"},
	{"ctrl.advise_us_p50", "us"},
	{"ctrl.plan_ms_p50", "ms"},
	{"ctrl.plan_steps_mean", "count"},
	{"routing.link_update_us_p50", "us"},
	{"routing.demand_update_us_p50", "us"},
	{"routing.dests_repair_per_update", "count"},
	{"routing.dests_dag_only_per_update", "count"},
	{"routing.weight_updates", "count"},
	{"routing.inits", "count"},
	{"routing.demand_dense", "count"},
	{"spf.runs", "count"},
	{"spf.repairs_increase", "count"},
	{"spf.repairs_decrease", "count"},
	{"spf.repairs_batch", "count"},
	{"spf.repairs_noop_frac", "ratio"},
	{"spf.changed_nodes_mean", "count"},
	{"opt.opt_s", "s"},
	{"opt.cpu_us_per_eval", "us"},
	{"opt.phase1_s", "s"},
	{"opt.phase1_evals", "count"},
	{"opt.phase1_evals_per_s", "1/s"},
	{"opt.topup_s", "s"},
	{"opt.select_s", "s"},
	{"opt.phase2_s", "s"},
	{"opt.phase2_evals", "count"},
	{"opt.phase2_evals_per_s", "1/s"},
	{"opt.library_build_s", "s"},
	{"scenario.sweep_s", "s"},
	{"scenario.evals", "count"},
	{"obsv.spans_recorded", "count"},
	{"obsv.flight_captures", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_tail_ms", "ms"},
	{"go.heap_sys_mb", "MiB"},
	{"bench.offered_eps", "1/s"},
	{"bench.gen_late_tail_ms", "ms"},
	{"bench.tta_samples", "count"},
	{"bench.tta_p90_ms", "ms"},
	{"bench.tta_tail_ms", "ms"},
	{"bench.tta_tail_pct", "%"},
	{"bench.traced_tta_p50_ms", "ms"},
	{"bench.fold_gap_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run collects what one workload measured and checked.
type run struct {
	cfg               config
	values            map[string]float64
	attempted, failed int
	checksFailed      int
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, values: map[string]float64{}}
}

// set records a metric value by name.
func (r *run) set(name string, v float64) { r.values[name] = v }

// ops counts operations the workload attempted and how many failed.
func (r *run) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// check records one output check; a failed check counts as a failed
// operation and makes the run incorrect.
func (r *run) check(name string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.checksFailed++
		fmt.Printf("check %-28s FAIL: %v\n", name, err)
		return
	}
	fmt.Printf("check %-28s ok\n", name)
}

// note prints one line of the human-readable report.
func (r *run) note(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// result prints the metric table and returns the result object: the
// end-to-end metrics untraced, the per-layer metrics traced. Every
// end-to-end metric must have been measured, and none is 0; a per-layer
// metric of a layer the workload leaves idle is 0.
func (r *run) result() (*result, error) {
	catalog := endToEnd
	if r.cfg.trace {
		catalog = perLayer
	}
	res := &result{
		Correct:   r.checksFailed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range catalog {
		v, ok := r.values[m.name]
		if !r.cfg.trace && (!ok || v <= 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured (%g)", m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Printf("metric %-34s %14.6g %s\n", m.name, v, m.unit)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// environment is the record every run prints before its metrics.
type environment struct {
	Workload          string `json:"workload"`
	Seed              int64  `json:"seed"`
	Seconds           int    `json:"seconds"`
	Trace             bool   `json:"trace"`
	GoVersion         string `json:"go_version"`
	HarnessGOMAXPROCS int    `json:"harness_gomaxprocs"`
	NumCPU            int    `json:"num_cpu"`
	DtrdGOMAXPROCS    int    `json:"dtrd_gomaxprocs,omitempty"`
	CPUModel          string `json:"cpu_model"`
	Source            string `json:"source"`
	Transport         string `json:"transport"`
}

func (r *run) environment(dtrdProcs int, transport string) {
	env := environment{
		Workload:          r.cfg.workload,
		Seed:              r.cfg.seed,
		Seconds:           r.cfg.seconds,
		Trace:             r.cfg.trace,
		GoVersion:         runtime.Version(),
		HarnessGOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:            runtime.NumCPU(),
		DtrdGOMAXPROCS:    dtrdProcs,
		CPUModel:          cpuModel(),
		Source:            sourceID(filepath.Dir(r.cfg.dir)),
		Transport:         transport,
	}
	data, _ := json.Marshal(env) // plain struct, always encodes
	fmt.Printf("env %s\n", data)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceID names the code under test: the git commit when the checkout
// is a repository, and always a digest of its sources.
func sourceID(root string) string {
	id := "sources:" + sourceDigest(root)
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			id = "commit:" + strings.TrimSpace(string(out)) + " " + id
		}
	}
	return id
}

// sourceDigest hashes every Go source and module file of the checkout,
// skipping hidden directories (the build output among them).
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
