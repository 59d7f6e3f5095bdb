package repro

// One benchmark per table and figure of the paper's evaluation, each
// running the corresponding experiment end to end at Quick scale
// (small topologies, tiny search budgets) and reporting its headline
// metric. `cmd/experiments -run <id> -scale std` regenerates the same
// artifact at the paper's topology sizes; EXPERIMENTS.md records the
// paper-vs-measured comparison.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/ctrl"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/obsv"
	"repro/internal/opt"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/spf"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

func benchExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	opts := experiments.Options{Scale: experiments.Quick, Seed: 1, Out: io.Discard}
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, m := range metrics {
				if v, ok := rep.Get(m); ok {
					b.ReportMetric(v, m)
				}
			}
		}
	}
}

// Table I: critical vs full search accuracy across topologies.
func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, "table1", "beta_full_RandTopo", "beta_crt_RandTopo_15")
}

// Section IV-E1 high-load variant of Table I.
func BenchmarkTable1HighLoad(b *testing.B) {
	benchExperiment(b, "table1hl", "beta_full", "beta_crt_25")
}

// Section IV-E2 computational savings of the critical search.
func BenchmarkSavings(b *testing.B) {
	benchExperiment(b, "savings", "phase2_evals_critical", "phase2_evals_full")
}

// Table II: SLA violations with and without robust optimization.
func BenchmarkTable2(b *testing.B) {
	benchExperiment(b, "table2", "avg_robust_RandTopo", "avg_regular_RandTopo")
}

// Table III: network-size sweep.
func BenchmarkTable3(b *testing.B) {
	benchExperiment(b, "table3")
}

// Table IV: node-degree sweep.
func BenchmarkTable4(b *testing.B) {
	benchExperiment(b, "table4")
}

// Table V: SLA-bound sweep.
func BenchmarkTable5(b *testing.B) {
	benchExperiment(b, "table5", "viol_regular_theta25", "viol_robust_theta25")
}

// Fig. 3: per-failure violations and throughput cost.
func BenchmarkFig3(b *testing.B) {
	benchExperiment(b, "fig3", "avg_viol_robust", "avg_viol_regular")
}

// Fig. 4: post-failure load spread, RandTopo vs NearTopo.
func BenchmarkFig4(b *testing.B) {
	benchExperiment(b, "fig4", "mean_links_increased_RandTopo", "mean_links_increased_NearTopo")
}

// Fig. 5(a): medium vs high load.
func BenchmarkFig5a(b *testing.B) {
	benchExperiment(b, "fig5a", "avg_viol_robust_high", "avg_viol_regular_high")
}

// Fig. 5(b),(c): delay distributions vs SLA bound.
func BenchmarkFig5bc(b *testing.B) {
	benchExperiment(b, "fig5bc", "mean_delay_RandTopo_theta25", "mean_delay_RandTopo_theta100")
}

// Fig. 5(d): max utilization of delay-carrying links.
func BenchmarkFig5d(b *testing.B) {
	benchExperiment(b, "fig5d", "mean_maxutil_theta30", "mean_maxutil_theta100")
}

// Fig. 6(a),(b): Gaussian traffic fluctuation.
func BenchmarkFig6ab(b *testing.B) {
	benchExperiment(b, "fig6ab", "avg_top10_viol_robust_perturbed", "avg_top10_viol_regular_perturbed")
}

// Fig. 6(c),(d): download hot-spot surges.
func BenchmarkFig6cd(b *testing.B) {
	benchExperiment(b, "fig6cd", "avg_top10_viol_robust_perturbed", "avg_top10_viol_regular_perturbed")
}

// Fig. 7(a),(b): node-failure robustness of three routings.
func BenchmarkFig7ab(b *testing.B) {
	benchExperiment(b, "fig7ab", "avg_viol_robust_node", "avg_viol_regular")
}

// Fig. 7(c),(d): link failures under the node-optimized routing.
func BenchmarkFig7cd(b *testing.B) {
	benchExperiment(b, "fig7cd", "avg_viol_robust_node", "avg_viol_robust_link")
}

// Ablation: critical-link selectors from prior work at equal |Ec|.
func BenchmarkAblationSelectors(b *testing.B) {
	benchExperiment(b, "ablation-selector")
}

// Ablation: left-tail fraction sensitivity.
func BenchmarkAblationTail(b *testing.B) {
	benchExperiment(b, "ablation-tail")
}

// Ablation: failure-emulation threshold q (emulated Phase 1b).
func BenchmarkAblationQ(b *testing.B) {
	benchExperiment(b, "ablation-q")
}

// Ablation: ECMP delay accounting (worst vs mean path).
func BenchmarkAblationDelayMetric(b *testing.B) {
	benchExperiment(b, "ablation-metric")
}

// Extension: double link failures under the single-link-robust routing.
func BenchmarkExtDoubleFailure(b *testing.B) {
	benchExperiment(b, "ext-double", "avg_viol_regular", "avg_viol_robust")
}

// Extension: topology augmentation against the unavoidable floor.
func BenchmarkExtDesign(b *testing.B) {
	benchExperiment(b, "ext-design", "floor_before_RandTopo", "floor_after_RandTopo")
}

// Micro-benchmarks of the evaluation engine, the inner loop everything
// above is built on.

func benchEvaluator(b *testing.B, nodes, links int) (*routing.Evaluator, *routing.WeightSetting) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g, err := topogen.Generate(topogen.Spec{Kind: topogen.RandKind, Nodes: nodes, DirectedLinks: links}, rng)
	if err != nil {
		b.Fatal(err)
	}
	demD, demT := traffic.Gravity(nodes, 1, 0.3, rng)
	if _, err := routing.ScaleToAvgUtil(g, demD, demT, 0.43); err != nil {
		b.Fatal(err)
	}
	ev := routing.NewEvaluator(g, demD, demT, cost.DefaultParams(), routing.WorstPath)
	return ev, routing.RandomWeightSetting(links, 20, rng)
}

// BenchmarkEvaluateNormal30 measures one full network evaluation (both
// classes routed, loads, delays, Λ, Φ) on the paper's standard 30-node
// RandTopo.
func BenchmarkEvaluateNormal30(b *testing.B) {
	ev, w := benchEvaluator(b, 30, 180)
	var res routing.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvaluateNormal(w, &res)
	}
}

// BenchmarkEvaluateNormal100 is the same on the Table III 100-node size.
func BenchmarkEvaluateNormal100(b *testing.B) {
	ev, w := benchEvaluator(b, 100, 500)
	var res routing.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvaluateNormal(w, &res)
	}
}

// Scenario-runner benchmarks: the same exhaustive single-link sweep on
// the paper's standard 30-node/180-link RandTopo, with the runner's
// GOMAXPROCS pool at one worker (Serial) and at the default (Parallel).
// The ratio Serial/Parallel is the runner's speedup and is tracked
// across PRs.

func benchScenarioRunner(b *testing.B) {
	b.Helper()
	ev, w := benchEvaluator(b, 30, 180)
	set := scenario.SingleLinkFailures(ev.Graph())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scenario.Runner{}.Run(ev, w, set)
	}
}

func BenchmarkScenarioRunnerSerial30(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benchScenarioRunner(b)
}

func BenchmarkScenarioRunnerParallel30(b *testing.B) { benchScenarioRunner(b) }

// BenchmarkScenarioRunnerMixed30 runs a heterogeneous set — dual-link
// outages, SRLGs, node failures and hot-spot surges — the shape
// cmd/scenarios fans out.
func BenchmarkScenarioRunnerMixed30(b *testing.B) {
	ev, w := benchEvaluator(b, 30, 180)
	g := ev.Graph()
	set := scenario.Merge("mixed",
		scenario.DualLinkFailures(g, 60, 1),
		scenario.SRLGFailures(g, 0),
		scenario.NodeFailures(g),
		scenario.HotspotSurges(ev.DemandDelay(), ev.DemandThroughput(), traffic.DefaultHotspot(true), 10, 1),
	)
	r := scenario.Runner{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(ev, w, set)
	}
}

// BenchmarkPhase1Iteration measures the regular optimization at the unit
// test budget on an 8-node network.
func BenchmarkPhase1Iteration(b *testing.B) {
	ev, _ := benchEvaluator(b, 8, 40)
	cfg := opt.QuickConfig()
	cfg.MaxIter1 = 4
	cfg.P1 = 1
	cfg.Div1Interval = 2
	cfg.MaxTopUpBatches = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		opt.New(ev, cfg).RunPhase1()
	}
}

// Phase 1 from-scratch versus delta-SPF sessions (which repair their
// SPF snapshots in place on every move that can shift distances; see
// spf/batch.go). The two visit identical moves (bit-identical
// Solutions; see opt's equivalence tests), so the time ratio
// Full/Incremental is the incremental engine's speedup and is tracked
// per-PR in CI. The evals_per_sec metric is the comparable throughput
// number. Measured on the paper's 16-node ISP backbone and — where the
// repair's small changed-vertex sets pay off most — the Table III
// 100-node RandTopo.
func benchPhase1(b *testing.B, spec topogen.Spec, fullEval bool) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g, err := topogen.Generate(spec, rng)
	if err != nil {
		b.Fatal(err)
	}
	demD, demT := traffic.Gravity(g.NumNodes(), 1, 0.3, rng)
	if _, err := routing.ScaleToAvgUtil(g, demD, demT, 0.43); err != nil {
		b.Fatal(err)
	}
	ev := routing.NewEvaluator(g, demD, demT, cost.DefaultParams(), routing.WorstPath)
	cfg := opt.QuickConfig()
	cfg.MaxIter1 = 8
	cfg.P1 = 1
	cfg.Div1Interval = 4
	cfg.FullEval = fullEval
	var stats opt.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		p1 := opt.New(ev, cfg).RunPhase1()
		stats = p1.Stats
	}
	b.ReportMetric(stats.EvalsPerSec(), "evals_per_sec")
}

func BenchmarkPhase1Full(b *testing.B) {
	benchPhase1(b, topogen.Spec{Kind: topogen.ISPKind}, true)
}

func BenchmarkPhase1Incremental(b *testing.B) {
	benchPhase1(b, topogen.Spec{Kind: topogen.ISPKind}, false)
}

func BenchmarkPhase1Full100(b *testing.B) {
	benchPhase1(b, topogen.Spec{Kind: topogen.RandKind, Nodes: 100, DirectedLinks: 500}, true)
}

func BenchmarkPhase1Incremental100(b *testing.B) {
	benchPhase1(b, topogen.Spec{Kind: topogen.RandKind, Nodes: 100, DirectedLinks: 500}, false)
}

// The scaling-curve family: the same incremental Phase 1 at n ∈ {100,
// 300, 1000} (BenchmarkPhase1Incremental100 above is the first point),
// with the per-pass budget shrunk as n grows so every point stays
// CI-sized. One pass is m moves, so ns/op divided by m·MaxIter1 is the
// per-move cost; a superlinear regression in n bends this curve and
// trips the benchmark gate. The two large points run with -benchtime 1x
// in CI. Both are above the session worker floor, so the search
// session runs its recompute regions on GOMAXPROCS workers — CI's
// under-load exercise of the parallel path; on a single-core machine
// they degenerate to the serial number, and results are bit-identical
// either way.
func benchPhase1Sized(b *testing.B, nodes, links, maxIter int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g, err := topogen.Generate(topogen.Spec{Kind: topogen.RandKind, Nodes: nodes, DirectedLinks: links}, rng)
	if err != nil {
		b.Fatal(err)
	}
	demD, demT := traffic.Gravity(g.NumNodes(), 1, 0.3, rng)
	if _, err := routing.ScaleToAvgUtil(g, demD, demT, 0.43); err != nil {
		b.Fatal(err)
	}
	ev := routing.NewEvaluator(g, demD, demT, cost.DefaultParams(), routing.WorstPath)
	cfg := opt.QuickConfig()
	cfg.MaxIter1 = maxIter
	cfg.P1 = 1
	cfg.Div1Interval = maxIter
	var stats opt.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		p1 := opt.New(ev, cfg).RunPhase1()
		stats = p1.Stats
	}
	b.ReportMetric(stats.EvalsPerSec(), "evals_per_sec")
}

func BenchmarkPhase1Incremental300(b *testing.B) {
	benchPhase1Sized(b, 300, 1500, 2)
}

func BenchmarkPhase1Incremental1000(b *testing.B) {
	benchPhase1Sized(b, 1000, 5000, 1)
}

// Exact Phase 1b from scratch versus on worker sessions: TopUpSamples
// on one fixed std-budget Phase 1 result of the 30-node/180-link
// RandTopo (Phase 1 runs once, outside the timer), with FullEval on and
// off. Each op evaluates every (pool entry, link) failure, and both
// modes fill the sampler with bit-identical samples (see opt's
// equivalence tests), so the Full/Incremental ns/op ratio is the
// session path's speed-up. evals_per_sec counts those link-failure
// evaluations.
func benchPhase1b(b *testing.B, fullEval bool) {
	b.Helper()
	ev, _ := benchEvaluator(b, 30, 180)
	cfg := opt.QuickConfig() // the facade's "std" budget
	p1 := opt.New(ev, cfg).RunPhase1()
	cfg.FullEval = fullEval
	o := opt.New(ev, cfg)
	evals := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := *p1
		o.TopUpSamples(&r)
		evals += r.Stats.Evaluations - p1.Stats.Evaluations
	}
	b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "evals_per_sec")
}

func BenchmarkPhase1bFull30(b *testing.B) { benchPhase1b(b, true) }

func BenchmarkPhase1bIncremental30(b *testing.B) { benchPhase1b(b, false) }

// BenchmarkRepairVsDijkstra isolates the incremental SPF primitive: one
// destination's SPF on the Table III 100-node RandTopo maintained
// through link-down/link-up event pairs, by a fresh Dijkstra per event
// versus a Ramalingam–Reps repair of the standing state (a one-change
// spf.RepairBatch, the call every routing.Session weight move and link
// flip makes per affected destination). Each iteration is two events;
// the FullDijkstra/Repair ns/op ratio is the repair's speedup and is
// tracked in CI.
func BenchmarkRepairVsDijkstra(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := topogen.Generate(topogen.Spec{Kind: topogen.RandKind, Nodes: 100, DirectedLinks: 500}, rng)
	if err != nil {
		b.Fatal(err)
	}
	m := g.NumLinks()
	w := make([]int32, m)
	for i := range w {
		w[i] = int32(1 + rng.Intn(20))
	}
	const dest = 0
	b.Run("FullDijkstra", func(b *testing.B) {
		ws := spf.NewWorkspace(g)
		mask := graph.NewMask(g)
		ws.Run(g, w, dest, mask)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			li := i % m
			mask.FailLink(li)
			ws.Run(g, w, dest, mask)
			mask.ReviveLink(li)
			ws.Run(g, w, dest, mask)
		}
	})
	b.Run("Repair", func(b *testing.B) {
		ws := spf.NewWorkspace(g)
		mask := graph.NewMask(g)
		ws.Run(g, w, dest, mask)
		down := make([]spf.LinkChange, 1)
		up := make([]spf.LinkChange, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			li := i % m
			down[0] = spf.LinkChange{Link: li, OldEff: int64(w[li]), NewEff: spf.Inf}
			up[0] = spf.LinkChange{Link: li, OldEff: spf.Inf, NewEff: int64(w[li])}
			mask.FailLink(li)
			ws.RepairBatch(g, w, down, mask)
			mask.ReviveLink(li)
			ws.RepairBatch(g, w, up, mask)
		}
	})
}

// BenchmarkRecomputeSerialVsParallel1000 measures the parallel
// recompute at the 1000-node scale it was built for: one persistent
// solo session over a 1000-node hierarchical ISP driven by weight
// apply/revert pairs, at GOMAXPROCS 1 (Serial) versus the default
// GOMAXPROCS (Parallel). Both modes replay the identical deterministic
// move sequence and produce bit-identical results (the equivalence
// tests' contract), so the Serial/Parallel ns/op ratio is the
// recompute speedup; on a single-core runner the two collapse to the
// same number.
func BenchmarkRecomputeSerialVsParallel1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := topogen.Generate(topogen.Spec{Kind: topogen.HierKind, Nodes: 1000}, rng)
	if err != nil {
		b.Fatal(err)
	}
	demD, demT := traffic.Gravity(g.NumNodes(), 1, 0.3, rng)
	if _, err := routing.ScaleToAvgUtil(g, demD, demT, 0.43); err != nil {
		b.Fatal(err)
	}
	ev := routing.NewEvaluator(g, demD, demT, cost.DefaultParams(), routing.WorstPath)
	w := routing.RandomWeightSetting(g.NumLinks(), 20, rng)
	ses := ev.NewSession(nil, -1)
	ses.SetParallelism()
	ses.Init(w)
	m := g.NumLinks()
	run := func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l := (i * 7919) % m
			ses.Apply(l, int32(1+(i*13)%20), int32(1+(i*17)%20))
			ses.Revert()
		}
	}
	b.Run("Serial", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		run(b)
	})
	b.Run("Parallel", run)
}

// BenchmarkBatchLinkRepair measures batched multi-link repair on the
// SRLG shape it was built for: an 8-link shared-risk group tripping and
// restoring on a persistent session over the Table III 100-node
// RandTopo. PerEvent applies the 16 flips as 16 one-change
// SetLinkStates calls (16 classify/repair/re-sum rounds); Batched uses
// two SetLinkStates calls (one multi-link Ramalingam–Reps pass per
// affected destination per transition). Results are bit-identical; the PerEvent/Batched
// ns/op ratio is the batch speedup (acceptance bar: ≥2×).
func BenchmarkBatchLinkRepair(b *testing.B) {
	ev, w := benchEvaluator(b, 100, 500)
	srlg := []int{3, 61, 119, 204, 268, 333, 401, 477}
	trip := make([]routing.LinkStateChange, len(srlg))
	restore := make([]routing.LinkStateChange, len(srlg))
	for i, li := range srlg {
		trip[i] = routing.LinkStateChange{Link: li, Up: false}
		restore[i] = routing.LinkStateChange{Link: li, Up: true}
	}
	b.Run("PerEvent", func(b *testing.B) {
		ses := ev.NewSession(nil, -1)
		ses.Init(w)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range trip {
				ses.SetLinkStates(trip[j : j+1])
			}
			for j := range restore {
				ses.SetLinkStates(restore[j : j+1])
			}
		}
	})
	b.Run("Batched", func(b *testing.B) {
		ses := ev.NewSession(nil, -1)
		ses.Init(w)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ses.SetLinkStates(trip)
			ses.SetLinkStates(restore)
		}
	})
}

// BenchmarkSetDemandsFullVsDelta isolates the demand-delta tentpole: a
// single-hotspot surge (every source into one destination column
// scaled, so O(1) of the n columns move) applied and recovered on a
// persistent session over the Table III 100-node RandTopo. Full is the
// pre-delta behavior — every demand update pays a complete rebase
// (2n Dijkstras + load/delay passes) — timed as Init on two sessions
// built on the surge and base matrices; Delta is the shipped path,
// which keeps all SPF state untouched and recomputes only the changed
// columns' contributions and Λ subtotals. Each iteration is two demand
// events (surge + restore); the Full/Delta ns/op ratio is the demand
// path's speedup and is tracked per-PR by the CI benchmark gate
// (acceptance bar: ≥5×).
func BenchmarkSetDemandsFullVsDelta(b *testing.B) {
	ev, w := benchEvaluator(b, 100, 500)
	const hot = 17
	surD := ev.DemandDelay().Clone()
	surT := ev.DemandThroughput().Clone()
	for s := 0; s < 100; s++ {
		if s == hot {
			continue
		}
		surD.Set(s, hot, surD.At(s, hot)*4)
		surT.Set(s, hot, surT.At(s, hot)*4)
	}
	b.Run("Full", func(b *testing.B) {
		surge := ev.NewScenarioSession(nil, -1, surD, surT)
		base := ev.NewScenarioSession(nil, -1, nil, nil)
		surge.Init(w)
		base.Init(w)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			surge.Init(w)
			base.Init(w)
		}
	})
	b.Run("Delta", func(b *testing.B) {
		ses := ev.NewScenarioSession(nil, -1, nil, nil)
		ses.Init(w)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ses.SetDemands(surD, surT)
			ses.SetDemands(nil, nil)
		}
	})
}

// BenchmarkSelectorAdviseSurge is BenchmarkSelectorAdvise's
// surge-heavy twin: the same 8-configuration library over the 100-node
// RandTopo driven by sparse demand-delta telemetry — one hotspot
// column surged, an advice scan, and the inverse delta — so every
// event re-scores all 8 candidates through the demand-delta path.
// events_per_sec is the demand-telemetry throughput one selector
// sustains.
func BenchmarkSelectorAdviseSurge(b *testing.B) {
	ev, _ := benchEvaluator(b, 100, 500)
	rng := rand.New(rand.NewSource(2))
	n := ev.Graph().NumNodes()
	ws := make([]*routing.WeightSetting, 8)
	for i := range ws {
		ws[i] = routing.RandomWeightSetting(ev.Graph().NumLinks(), 20, rng)
	}
	lib, err := ctrl.FromWeightSettings(ev, nil, ws)
	if err != nil {
		b.Fatal(err)
	}
	sel, err := ctrl.NewSelector(ev, lib)
	if err != nil {
		b.Fatal(err)
	}
	// One surge delta per destination column (×4 on both classes), with
	// its exact inverse.
	onsets := make([]*traffic.Delta, n)
	recoveries := make([]*traffic.Delta, n)
	for t := 0; t < n; t++ {
		surged := ev.DemandDelay().Clone()
		for s := 0; s < n; s++ {
			if s != t {
				surged.Set(s, t, surged.At(s, t)*4)
			}
		}
		onsets[t] = traffic.Diff(ev.DemandDelay(), surged)
		recoveries[t] = onsets[t].Inverse()
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		t := i % n
		if err := sel.ObserveBatch([]scenario.Event{scenario.Event{Kind: scenario.EventDemandDelta, DeltaD: onsets[t]}}, 0, 0); err != nil {
			b.Fatal(err)
		}
		if best := sel.Advise().Config; best < 0 || best >= 8 {
			b.Fatal("bad advice")
		}
		if err := sel.ObserveBatch([]scenario.Event{scenario.Event{Kind: scenario.EventDemandDelta, DeltaD: recoveries[t]}}, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	if d := time.Since(start).Seconds(); d > 0 {
		b.ReportMetric(float64(2*b.N)/d, "events_per_sec")
	}
}

// BenchmarkSelectorAdvise measures the control plane's event-to-advice
// pipeline on a library of 8 configurations over the Table III 100-node
// RandTopo: one link-down event, an advice scan, and the recovering
// link-up event. Every event incrementally re-scores all 8 candidate
// sessions; the metric events_per_sec is the telemetry throughput one
// selector sustains.
func BenchmarkSelectorAdvise(b *testing.B) { benchSelectorAdvise(b) }

func benchSelectorAdvise(b *testing.B) {
	b.Helper()
	ev, _ := benchEvaluator(b, 100, 500)
	rng := rand.New(rand.NewSource(2))
	ws := make([]*routing.WeightSetting, 8)
	for i := range ws {
		ws[i] = routing.RandomWeightSetting(ev.Graph().NumLinks(), 20, rng)
	}
	lib, err := ctrl.FromWeightSettings(ev, nil, ws)
	if err != nil {
		b.Fatal(err)
	}
	sel, err := ctrl.NewSelector(ev, lib)
	if err != nil {
		b.Fatal(err)
	}
	m := ev.Graph().NumLinks()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		li := i % m
		if err := sel.ObserveBatch([]scenario.Event{scenario.Event{Kind: scenario.EventLinkDown, Link: li}}, 0, 0); err != nil {
			b.Fatal(err)
		}
		if best := sel.Advise().Config; best < 0 || best >= 8 {
			b.Fatal("bad advice")
		}
		if err := sel.ObserveBatch([]scenario.Event{scenario.Event{Kind: scenario.EventLinkUp, Link: li}}, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	if d := time.Since(start).Seconds(); d > 0 {
		b.ReportMetric(float64(2*b.N)/d, "events_per_sec")
	}
}

// The Obsv twins run the exact workload of their base benchmark with a
// live obsv registry installed, so the instrumented/uninstrumented
// ns/op delta IS the telemetry cost on the two hottest pipelines. CI
// gates the pair deltas at 5% (ISSUE 6 budgets 3%; the gate adds slack
// for scheduler noise) via `benchgate -overhead`.

func BenchmarkPhase1Incremental100Obsv(b *testing.B) {
	obsv.SetDefault(obsv.NewRegistry())
	defer obsv.SetDefault(nil)
	benchPhase1(b, topogen.Spec{Kind: topogen.RandKind, Nodes: 100, DirectedLinks: 500}, false)
}

func BenchmarkSelectorAdviseObsv(b *testing.B) {
	obsv.SetDefault(obsv.NewRegistry())
	defer obsv.SetDefault(nil)
	benchSelectorAdvise(b)
}

// The Spans twins additionally enable the span recorder, so their delta
// against the base benchmark is the full tracing cost (metrics + span
// ring). Same 5% pair gate as the Obsv twins.

func BenchmarkPhase1Incremental100Spans(b *testing.B) {
	reg := obsv.NewRegistry()
	reg.EnableSpans(obsv.DefaultSpanCapacity)
	obsv.SetDefault(reg)
	defer obsv.SetDefault(nil)
	benchPhase1(b, topogen.Spec{Kind: topogen.RandKind, Nodes: 100, DirectedLinks: 500}, false)
}

func BenchmarkSelectorAdviseSpans(b *testing.B) {
	reg := obsv.NewRegistry()
	reg.EnableSpans(obsv.DefaultSpanCapacity)
	obsv.SetDefault(reg)
	defer obsv.SetDefault(nil)
	benchSelectorAdvise(b)
}

// --- High-rate ingestion: the firehose pair ---------------------------
//
// Both variants replay the same rendered telemetry stream (every
// scenario of a failure+surge day as onset/recovery episodes, shuffled
// and chunked into 256-event batches) into an 4-candidate selector on
// the paper's standard 30-node RandTopo. PerEvent is the per-request
// baseline: one Observe fan-out per event, the cost of the original
// one-object /observe path. Batched drives the same stream through the
// internal/ingest queue, whose delivery loop coalesces superseded
// events (a flap and its recovery in the same batch cancel; demand
// deltas merge) and folds each batch into the selector through the
// batch path. events_per_sec is the sustained intake throughput; the
// benchgate tracks the Batched/PerEvent ratio staying >= 5x.

// benchFirehoseLibrary builds the firehose pair's 4-candidate library
// on a fresh copy of the standard evaluator. Every call uses the same
// seeds, so repeated calls produce bit-identical controllers — the
// fleet pair below relies on that to give each shard its own state
// while replaying one shared stream.
func benchFirehoseLibrary(b *testing.B) (*routing.Evaluator, *ctrl.Library) {
	b.Helper()
	ev, _ := benchEvaluator(b, 30, 180)
	rng := rand.New(rand.NewSource(2))
	ws := make([]*routing.WeightSetting, 4)
	for i := range ws {
		ws[i] = routing.RandomWeightSetting(ev.Graph().NumLinks(), 20, rng)
	}
	lib, err := ctrl.FromWeightSettings(ev, nil, ws)
	if err != nil {
		b.Fatal(err)
	}
	return ev, lib
}

// benchFirehoseStream renders the telemetry stream both ingestion
// benchmarks replay: every scenario of a failure+surge day as
// onset/recovery episodes, shuffled and chunked into 256-event batches.
func benchFirehoseStream(b *testing.B, ev *routing.Evaluator) ([]scenario.TimedBatch, int) {
	b.Helper()
	g := ev.Graph()
	set := scenario.Merge("firehose",
		scenario.SingleLinkFailures(g),
		scenario.DualLinkFailures(g, 20, 7),
		scenario.HotspotSurges(ev.DemandDelay(), ev.DemandThroughput(), traffic.DefaultHotspot(true), 6, 11))
	batches := scenario.Firehose(g, set, scenario.FirehoseConfig{BatchEvents: 256, Seed: 5})
	total := 0
	for _, tb := range batches {
		total += len(tb.Events)
	}
	return batches, total
}

func benchFirehose(b *testing.B) (*ctrl.Selector, []scenario.TimedBatch, int) {
	b.Helper()
	ev, lib := benchFirehoseLibrary(b)
	sel, err := ctrl.NewSelector(ev, lib)
	if err != nil {
		b.Fatal(err)
	}
	batches, total := benchFirehoseStream(b, ev)
	return sel, batches, total
}

func BenchmarkFirehose(b *testing.B) {
	b.Run("PerEvent", func(b *testing.B) {
		sel, batches, total := benchFirehose(b)
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, tb := range batches {
				for _, e := range tb.Events {
					if err := sel.ObserveBatch([]scenario.Event{e}, 0, 0); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		if d := time.Since(start).Seconds(); d > 0 {
			b.ReportMetric(float64(b.N*total)/d, "events_per_sec")
		}
	})
	b.Run("Batched", func(b *testing.B) {
		sel, batches, total := benchFirehose(b)
		in := ingest.New(ingest.Config{Capacity: 1 << 20}, sel)
		defer in.Close(context.Background())
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, tb := range batches {
				if err := in.Enqueue(tb.Events); err != nil {
					b.Fatal(err)
				}
			}
			in.Quiesce() // every accepted event reaches the selector
		}
		if d := time.Since(start).Seconds(); d > 0 {
			b.ReportMetric(float64(b.N*total)/d, "events_per_sec")
		}
		if err := in.Err(); err != nil {
			b.Fatal(err)
		}
	})
}

// --- Fleet scaling: the sharded-intake pair ---------------------------
//
// Both variants replay the shared firehose stream through fleet shards
// (each shard = its own controller + intake queue + delivery
// goroutine). 1Network is the single-shard baseline — every batch
// lands on one controller, so it measures the fleet layer's overhead
// over the bare intake queue. 4Networks splits the same stream
// round-robin across four shards whose controllers are bit-identical
// copies of the baseline's, so the pair isolates how intake throughput
// scales with shard count: deliveries coalesce and fold concurrently,
// one delivery loop per shard. events_per_sec is the sustained fleet
// intake rate; the benchgate tracks both variants' ns/op.

func benchFleetShards(b *testing.B, networks int) []*fleet.Shard {
	b.Helper()
	shards := make([]*fleet.Shard, networks)
	for i := range shards {
		ev, lib := benchFirehoseLibrary(b)
		sh, err := fleet.NewShard(fleet.ShardConfig{
			Network:  fmt.Sprintf("net%d", i),
			Factory:  func() (*ctrl.Selector, error) { return ctrl.NewSelector(ev, lib) },
			Capacity: 1 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		shards[i] = sh
	}
	return shards
}

func benchFleetObserve(b *testing.B, networks int) {
	shards := benchFleetShards(b, networks)
	for _, sh := range shards {
		defer sh.Close(context.Background())
	}
	ev, _ := benchEvaluator(b, 30, 180)
	batches, total := benchFirehoseStream(b, ev)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for j, tb := range batches {
			if _, err := shards[j%networks].Enqueue(tb.Events); err != nil {
				b.Fatal(err)
			}
		}
		for _, sh := range shards {
			sh.Quiesce() // every accepted event reaches its controller
		}
	}
	if d := time.Since(start).Seconds(); d > 0 {
		b.ReportMetric(float64(b.N*total)/d, "events_per_sec")
	}
}

func BenchmarkFleetObserve(b *testing.B) {
	b.Run("1Network", func(b *testing.B) { benchFleetObserve(b, 1) })
	b.Run("4Networks", func(b *testing.B) { benchFleetObserve(b, 4) })
}
