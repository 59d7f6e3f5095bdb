package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/obsv"
	"repro/internal/opt"
	"repro/internal/routing"
	"repro/internal/scenario"
)

// optimize-30: in-process repro.NewNetwork and Network.Optimize at
// dtropt's defaults (30-node/180-link RandTopo, std budget, critical
// fraction 0.15), each followed by the report dtropt prints, over a
// fixed list of seeds.
var optimizeSeeds = []int64{1, 2}

const (
	optimizeBudget   = "std"
	optimizeCritFrac = 0.15
)

// optimizeRecord is what one seed must produce: the evaluation counts of
// both phases and digests of the regular and robust weights.
type optimizeRecord struct {
	phase1Evals, phase2Evals int
	regular, robust          string
}

// optimizeRecorded pins every seed's output. A change that alters the
// search's result is not a performance change; it fails the check.
var optimizeRecorded = map[int64]optimizeRecord{
	1: {phase1Evals: 18001, phase2Evals: 81136, regular: "8753a7ec009f4ecc", robust: "8e0df3b70a843c6a"},
	2: {phase1Evals: 18001, phase2Evals: 106975, regular: "19062aa22692fb72", robust: "3b78f463266d8d47"},
}

func optimizeSpec(seed int64) netSpec { return netSpec{nodes: 30, links: 180, seed: seed} }

// optimizeOrder is the seed list in the order --seed selects.
func optimizeOrder(seed int64) []int64 {
	order := append([]int64(nil), optimizeSeeds...)
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// optimizeOutcome is one seed's untraced run.
type optimizeOutcome struct {
	seed   int64
	wall   time.Duration
	cpu    time.Duration
	evals  int // phase 1 + phase 2 + report evaluations
	record optimizeRecord
	p1, p2 repro.SearchStats
}

// optimizeOne runs Optimize and dtropt's report for one seed.
func optimizeOne(nw *repro.Network, seed int64) (optimizeOutcome, error) {
	out := optimizeOutcome{seed: seed}
	cpu0, t0 := selfCPU(), time.Now()
	res, err := nw.Optimize(repro.OptimizeOptions{Budget: optimizeBudget, CriticalFraction: optimizeCritFrac, Seed: seed})
	if err != nil {
		return out, err
	}
	for _, rt := range []*repro.Routing{res.Regular, res.Robust} {
		_ = rt.Evaluate()
		_ = rt.EvaluateAllLinkFailures()
	}
	out.wall, out.cpu = time.Since(t0), selfCPU()-cpu0
	out.p1, out.p2 = res.Phase1Stats, res.Phase2Stats
	out.evals = res.Phase1Stats.Evaluations + res.Phase2Stats.Evaluations + 2*(1+nw.Links())
	out.record = optimizeRecord{
		phase1Evals: res.Phase1Stats.Evaluations,
		phase2Evals: res.Phase2Stats.Evaluations,
		regular:     digest(res.Regular),
		robust:      digest(res.Robust),
	}
	return out, nil
}

func digest(rt interface{ MarshalJSON() ([]byte, error) }) string {
	data, err := rt.MarshalJSON()
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

func checkRecord(seed int64, got optimizeRecord) error {
	want, ok := optimizeRecorded[seed]
	switch {
	case !ok:
		return fmt.Errorf("seed %d has no recorded output (got %+v)", seed, got)
	case got != want:
		return fmt.Errorf("seed %d: got %+v, recorded %+v", seed, got, want)
	}
	return nil
}

func runOptimize(cfg config, r *run) error {
	order := optimizeOrder(cfg.seed)
	if cfg.smoke {
		order = order[:1]
	}
	// Set-up: building every network of the list, 21 times, each from a
	// collected heap so the page faults of a growing heap do not land
	// in some repetitions and not others.
	var setups []float64
	nws := map[int64]*repro.Network{}
	for i := 0; i < 21; i++ {
		runtime.GC()
		t0 := time.Now()
		for _, s := range order {
			nw, err := repro.NewNetwork(optimizeSpec(s).facade())
			if err != nil {
				return err
			}
			nws[s] = nw
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))

	// Passes over the list until the window is used up, at least one.
	var outs []optimizeOutcome
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < time.Duration(cfg.seconds)*time.Second; pass++ {
		for _, s := range order {
			o, err := optimizeOne(nws[s], s)
			r.ops(1, 0)
			if err != nil {
				return fmt.Errorf("seed %d: %w", s, err)
			}
			r.check(fmt.Sprintf("seed %d output as recorded", s), checkRecord(s, o.record))
			outs = append(outs, o)
		}
	}
	var walls []float64
	var cpu time.Duration
	evals := 0
	for _, o := range outs {
		walls = append(walls, ms(o.wall))
		cpu += o.cpu
		evals += o.evals
		r.note("optimize-30: seed %d: %.0fms (phase 1 %d evals, phase 2 %d evals), weights %s/%s",
			o.seed, ms(o.wall), o.p1.Evaluations, o.p2.Evaluations, o.record.regular, o.record.robust)
	}
	wall := newDist(walls)
	tail, share := wall.tail()
	r.set("time_to_result_p50_ms", wall.p50())
	r.set("bench.tta_p90_ms", wall.at(0.9))
	r.set("bench.tta_tail_ms", tail)
	r.set("bench.tta_tail_pct", 100*share)
	r.set("cpu_ms_per_result", ms(cpu)/float64(len(outs)))
	r.set("opt.cpu_us_per_eval", cpuPerEvent(cpu, evals))
	rss, err := procPeakRSS(os.Getpid())
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	opt := 0.0
	for _, o := range outs[:len(order)] {
		opt += o.wall.Seconds()
	}
	r.set("opt.opt_s", opt)
	r.environment(0, "in-process")
	if cfg.trace {
		return traceOptimize(cfg, r, order, outs[:len(order)])
	}
	return nil
}

// traceOptimize repeats the first pass traced: opt.New(...).RunPhase1,
// TopUpSamples, SelectCritical, RunPhase2 and the report's
// scenario.Runner sweeps in place of the single facade call, each timed
// as a span. The weights must match the untraced run's digests.
func traceOptimize(cfg config, r *run, order []int64, outs []optimizeOutcome) error {
	reg := obsv.NewRegistry()
	obsv.SetDefault(reg)
	defer obsv.SetDefault(nil)
	before := indexSnapshot(reg.Snapshot())
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	var tr tracer
	stage := map[string]time.Duration{}
	p1Evals, p2Evals := 0, 0
	var untraced, traced time.Duration
	origin := time.Now()
	for k, seed := range order {
		rep, err := newReplica(optimizeSpec(seed))
		if err != nil {
			return err
		}
		oc := opt.QuickConfig() // the facade's "std" budget
		oc.Seed = seed
		trace := int64(k + 1)
		t0 := time.Since(origin)
		var kids []struct {
			name       string
			start, end time.Duration
		}
		timed := func(name string, fn func()) {
			a := time.Since(origin)
			fn()
			b := time.Since(origin)
			stage[name] += b - a
			kids = append(kids, struct {
				name       string
				start, end time.Duration
			}{name, a, b})
		}
		o := opt.New(rep.ev, oc)
		var p1 *opt.Phase1Result
		var p2 *opt.Phase2Result
		var crit []int
		timed("opt.phase1", func() { p1 = o.RunPhase1() })
		timed("opt.topup", func() { o.TopUpSamples(p1) })
		timed("opt.select", func() { crit = o.SelectCritical(p1, optimizeCritFrac) })
		timed("opt.phase2", func() { p2 = o.RunPhase2(p1, opt.FailureSet{Links: crit}) })
		for _, w := range []*routing.WeightSetting{p1.BestW, p2.BestW} {
			timed("routing.evaluate", func() {
				var res routing.Result
				rep.ev.EvaluateNormal(w, &res)
			})
			timed("scenario.sweep", func() { scenario.Runner{}.Run(rep.ev, w, scenario.SingleLinkFailures(rep.g)) })
		}
		t1 := time.Since(origin)
		root := tr.add(trace, 0, "optimize", t0, t1)
		for _, c := range kids {
			tr.add(trace, root, c.name, c.start, c.end)
		}
		traced += t1 - t0
		untraced += outs[k].wall
		p1Evals += p1.Stats.Evaluations
		p2Evals += p2.Stats.Evaluations
		got := optimizeRecord{
			phase1Evals: p1.Stats.Evaluations,
			phase2Evals: p2.Stats.Evaluations,
			regular:     digest(p1.BestW),
			robust:      digest(p2.BestW),
		}
		r.check(fmt.Sprintf("traced seed %d matches untraced", seed), sameRecord(got, outs[k].record))
	}
	runtime.ReadMemStats(&mem1)
	after := indexSnapshot(reg.Snapshot())
	engineCounts(r, regDelta{before, after}, traced.Seconds())
	r.set("opt.phase1_s", stage["opt.phase1"].Seconds())
	r.set("opt.topup_s", stage["opt.topup"].Seconds())
	r.set("opt.select_s", stage["opt.select"].Seconds())
	r.set("opt.phase2_s", stage["opt.phase2"].Seconds())
	r.set("opt.phase1_evals", float64(p1Evals))
	r.set("opt.phase2_evals", float64(p2Evals))
	if s := stage["opt.phase1"].Seconds(); s > 0 {
		r.set("opt.phase1_evals_per_s", float64(p1Evals)/s)
	}
	if s := stage["opt.phase2"].Seconds(); s > 0 {
		r.set("opt.phase2_evals_per_s", float64(p2Evals)/s)
	}
	r.set("scenario.sweep_s", stage["scenario.sweep"].Seconds())
	r.set("bench.trace_overhead_frac", (traced.Seconds()-untraced.Seconds())/untraced.Seconds())
	gcMetrics(r, &mem0, &mem1)
	selfs := fold(tr.spans)
	r.note("traced fold (self time per stage, ms, summed over seeds):")
	for _, name := range []string{"optimize", "opt.phase1", "opt.topup", "opt.select", "opt.phase2", "routing.evaluate", "scenario.sweep"} {
		d := selfs[name]
		r.note("  %-18s n=%-3d total=%10.1f", name, len(d), d.mean()*float64(len(d)))
	}
	path := fmt.Sprintf("%s/spans-%s-seed%d.json", cfg.work, cfg.workload, cfg.seed)
	if err := tr.write(path); err != nil {
		return err
	}
	r.note("span dump: %s (%d spans)", path, len(tr.spans))
	return nil
}

func sameRecord(got, want optimizeRecord) error {
	if got != want {
		return fmt.Errorf("traced %+v, untraced %+v", got, want)
	}
	return nil
}

// gcMetrics sets the Go runtime metrics of the harness process from two
// MemStats readings around the traced window.
func gcMetrics(r *run, before, after *runtime.MemStats) {
	n := after.NumGC - before.NumGC
	r.set("go.gc_cycles", float64(n))
	var pauses []float64
	for i := uint32(0); i < n && i < uint32(len(after.PauseNs)); i++ {
		pauses = append(pauses, float64(after.PauseNs[(after.NumGC-1-i)%uint32(len(after.PauseNs))])/1e6)
	}
	tail, _ := newDist(pauses).tail()
	r.set("go.gc_pause_tail_ms", tail)
	r.set("go.heap_sys_mb", float64(after.HeapSys)/(1<<20))
}
