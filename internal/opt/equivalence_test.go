package opt

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/obsv"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// equivalenceEvaluator builds the evaluator for one of the equivalence
// topologies. Both modes must see identical inputs, so each run builds
// its own copy from the same seed.
func equivalenceEvaluator(t *testing.T, kind topogen.Kind, nodes, links int, seed int64) *routing.Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := topogen.Generate(topogen.Spec{Kind: kind, Nodes: nodes, DirectedLinks: links}, rng)
	if err != nil {
		t.Fatal(err)
	}
	demD, demT := traffic.Gravity(g.NumNodes(), 1, 0.3, rng)
	if _, err := routing.ScaleToAvgUtil(g, demD, demT, 0.45); err != nil {
		t.Fatal(err)
	}
	return routing.NewEvaluator(g, demD, demT, cost.DefaultParams(), routing.WorstPath)
}

// requireSameEstimate asserts that two criticality estimates agree bit
// for bit in all four per-link vectors.
func requireSameEstimate(t *testing.T, label string, got, want core.Criticality) {
	t.Helper()
	vecs := []struct {
		name      string
		got, want []float64
	}{
		{"RhoLambda", got.RhoLambda, want.RhoLambda},
		{"RhoPhi", got.RhoPhi, want.RhoPhi},
		{"TailLambda", got.TailLambda, want.TailLambda},
		{"TailPhi", got.TailPhi, want.TailPhi},
	}
	for _, v := range vecs {
		if len(v.got) != len(v.want) {
			t.Fatalf("%s: %s has %d links, want %d", label, v.name, len(v.got), len(v.want))
		}
		for l := range v.got {
			if math.Float64bits(v.got[l]) != math.Float64bits(v.want[l]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", label, v.name, l, v.got[l], v.want[l])
			}
		}
	}
}

// solution is the output of the complete heuristic of Fig. 1 as
// runPipeline drives it.
type solution struct {
	Phase1   *Phase1Result
	Phase2   *Phase2Result
	Critical []int
}

// runPipeline runs Phase 1, the Phase 1b top-up, the Phase 1c critical
// link selection at the configured |Ec|/|E|, and Phase 2 against the
// selected links — the phase sequence the facade's Optimize runs.
func runPipeline(o *Optimizer) solution {
	p1 := o.RunPhase1()
	o.TopUpSamples(p1)
	critical := o.SelectCritical(p1, o.cfg.TargetCriticalFrac)
	p2 := o.RunPhase2(p1, FailureSet{Links: critical, Both: o.cfg.FailBoth})
	return solution{Phase1: p1, Phase2: p2, Critical: critical}
}

// TestIncrementalMatchesFullEval is the refactor's acceptance bar: the
// session-based Phase 1/Phase 2 pipeline must produce bit-identical
// solutions (weights, costs, Phase 1b samples, critical set) to the
// from-scratch full-evaluation path under the same seeds, on more than
// one topology family and under both failure semantics.
func TestIncrementalMatchesFullEval(t *testing.T) {
	cases := []struct {
		name         string
		kind         topogen.Kind
		nodes, links int
		failBoth     bool
	}{
		{"rand8", topogen.RandKind, 8, 40, false},
		{"isp16", topogen.ISPKind, 0, 0, false},
		{"rand8-failboth", topogen.RandKind, 8, 40, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Seed = 7
			cfg.FailBoth = tc.failBoth

			cfgFull := cfg
			cfgFull.FullEval = true
			full := runPipeline(New(equivalenceEvaluator(t, tc.kind, tc.nodes, tc.links, 21), cfgFull))

			cfgInc := cfg
			cfgInc.FullEval = false
			inc := runPipeline(New(equivalenceEvaluator(t, tc.kind, tc.nodes, tc.links, 21), cfgInc))

			// Phase 1: same best weights, same cost, same pool.
			if !full.Phase1.BestW.Equal(inc.Phase1.BestW) {
				t.Error("phase 1 best weights differ")
			}
			if full.Phase1.Best.Cost != inc.Phase1.Best.Cost {
				t.Errorf("phase 1 best cost %+v != %+v", full.Phase1.Best.Cost, inc.Phase1.Best.Cost)
			}
			if len(full.Phase1.Pool) != len(inc.Phase1.Pool) {
				t.Fatalf("pool sizes differ: %d vs %d", len(full.Phase1.Pool), len(inc.Phase1.Pool))
			}
			for i := range full.Phase1.Pool {
				if !full.Phase1.Pool[i].W.Equal(inc.Phase1.Pool[i].W) || full.Phase1.Pool[i].Normal != inc.Phase1.Pool[i].Normal {
					t.Errorf("pool entry %d differs", i)
				}
			}
			// Criticality artifacts: same samples, same critical set.
			if full.Phase1.Sampler.Total() != inc.Phase1.Sampler.Total() {
				t.Errorf("sample totals differ: %d vs %d", full.Phase1.Sampler.Total(), inc.Phase1.Sampler.Total())
			}
			requireSameEstimate(t, "phase 1b", inc.Phase1.Sampler.Estimate(), full.Phase1.Sampler.Estimate())
			if full.Phase1.Stats.Evaluations != inc.Phase1.Stats.Evaluations {
				t.Errorf("phase 1 evaluations %d vs %d", full.Phase1.Stats.Evaluations, inc.Phase1.Stats.Evaluations)
			}
			if len(full.Critical) != len(inc.Critical) {
				t.Fatalf("critical set sizes differ: %d vs %d", len(full.Critical), len(inc.Critical))
			}
			for i := range full.Critical {
				if full.Critical[i] != inc.Critical[i] {
					t.Errorf("critical link %d differs: %d vs %d", i, full.Critical[i], inc.Critical[i])
				}
			}
			// Phase 2: same robust weights and costs.
			if !full.Phase2.BestW.Equal(inc.Phase2.BestW) {
				t.Error("phase 2 best weights differ")
			}
			if full.Phase2.FailCost != inc.Phase2.FailCost {
				t.Errorf("phase 2 fail cost %+v != %+v", full.Phase2.FailCost, inc.Phase2.FailCost)
			}
			if full.Phase2.Normal.Cost != inc.Phase2.Normal.Cost {
				t.Errorf("phase 2 normal cost %+v != %+v", full.Phase2.Normal.Cost, inc.Phase2.Normal.Cost)
			}
		})
	}
	t.Run("phase1b-workers", phase1bWorkersMatchFullEval)
}

// phase1bWorkersMatchFullEval pins exact Phase 1b on worker sessions
// against the from-scratch sweep on one Phase 1 result: at GOMAXPROCS 1
// and 3, with the whole pool (entries as tasks) and with a one-entry
// pool (split into link blocks), under both failure semantics, and with
// a session budget below one session, which must take the from-scratch
// fallback. Every variant must give the oracle's samples bit for bit.
func phase1bWorkersMatchFullEval(t *testing.T) {
	reg := obsv.NewRegistry()
	obsv.SetDefault(reg)
	defer obsv.SetDefault(nil)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	linkUpdates := reg.Counter("routing_session_updates_total", "", obsv.L("kind", "link"))

	ev := equivalenceEvaluator(t, topogen.RandKind, 8, 40, 29)
	m := ev.Graph().NumLinks()
	cfg := testConfig()
	cfg.Seed = 5
	p1 := New(ev, cfg).RunPhase1()
	// Pad the pool with random settings so it has more entries than
	// workers; Phase 1b's arithmetic does not care whether they passed
	// the pool gate.
	big := append([]PoolEntry(nil), p1.Pool...)
	rng := rand.New(rand.NewSource(6))
	for len(big) < 5 {
		big = append(big, PoolEntry{W: routing.RandomWeightSetting(m, cfg.WMax, rng)})
	}
	for _, failBoth := range []bool{false, true} {
		for _, pool := range [][]PoolEntry{big, big[:1]} {
			topUp := func(c Config) *Phase1Result {
				c.FailBoth = failBoth
				r := *p1
				r.Pool = pool
				New(ev, c).TopUpSamples(&r)
				return &r
			}
			oracleCfg := cfg
			oracleCfg.FullEval = true
			want := topUp(oracleCfg).Sampler.Estimate()
			label := fmt.Sprintf("failBoth=%v pool=%d", failBoth, len(pool))
			for _, procs := range []int{1, 3} {
				runtime.GOMAXPROCS(procs)
				before := linkUpdates.Value()
				got := topUp(cfg)
				requireSameEstimate(t, fmt.Sprintf("%s procs=%d", label, procs), got.Sampler.Estimate(), want)
				if n := linkUpdates.Value() - before; n != int64(len(pool)*m) {
					t.Errorf("%s procs=%d: %d session link updates, want %d", label, procs, n, len(pool)*m)
				}
			}
			tight := cfg
			tight.SessionBudgetBytes = ev.SessionBytes() - 1
			before := linkUpdates.Value()
			requireSameEstimate(t, label+" fallback", topUp(tight).Sampler.Estimate(), want)
			if n := linkUpdates.Value() - before; n != 0 {
				t.Errorf("%s: budget below one session still ran %d session link updates", label, n)
			}
		}
	}
}

// TestParallelismMatchesSerial runs the whole pipeline on a 70-node
// RandTopo, above routing's session worker floor, at GOMAXPROCS 1 and
// 4. At 4 the solo search sessions fan their regions out and every
// sweep over pool entries or scenarios runs on four workers; at 1
// everything is serial. Weights, costs, critical sets and evaluation
// counts must match bit for bit.
func TestParallelismMatchesSerial(t *testing.T) {
	reg := obsv.NewRegistry()
	obsv.SetDefault(reg)
	defer obsv.SetDefault(nil)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	parTasks := reg.Counter("routing_session_dest_tasks_total", "", obsv.L("mode", "parallel"))

	cfg := testConfig()
	cfg.Seed = 19
	cfg.MaxIter1, cfg.Div1Interval = 1, 1
	cfg.MaxIter2, cfg.Div2Interval = 1, 1
	cfg.TargetCriticalFrac = 0.02
	run := func(procs int) solution {
		runtime.GOMAXPROCS(procs)
		before := parTasks.Value()
		sol := runPipeline(New(equivalenceEvaluator(t, topogen.RandKind, 70, 280, 23), cfg))
		if fanned := parTasks.Value() > before; fanned != (procs > 1) {
			t.Errorf("GOMAXPROCS %d: session regions fanned out = %v", procs, fanned)
		}
		return sol
	}
	serial, par := run(1), run(4)

	if !serial.Phase1.BestW.Equal(par.Phase1.BestW) {
		t.Error("phase 1 best weights differ under parallelism")
	}
	if serial.Phase1.Best.Cost != par.Phase1.Best.Cost {
		t.Errorf("phase 1 best cost %+v != %+v", serial.Phase1.Best.Cost, par.Phase1.Best.Cost)
	}
	if serial.Phase1.Stats.Evaluations != par.Phase1.Stats.Evaluations {
		t.Errorf("phase 1 evaluations %d != %d", serial.Phase1.Stats.Evaluations, par.Phase1.Stats.Evaluations)
	}
	if len(serial.Critical) != len(par.Critical) {
		t.Fatalf("critical set sizes differ: %d vs %d", len(serial.Critical), len(par.Critical))
	}
	for i := range serial.Critical {
		if serial.Critical[i] != par.Critical[i] {
			t.Errorf("critical link %d differs: %d vs %d", i, serial.Critical[i], par.Critical[i])
		}
	}
	if !serial.Phase2.BestW.Equal(par.Phase2.BestW) {
		t.Error("phase 2 best weights differ under parallelism")
	}
	if serial.Phase2.FailCost != par.Phase2.FailCost {
		t.Errorf("phase 2 fail cost %+v != %+v", serial.Phase2.FailCost, par.Phase2.FailCost)
	}
	if serial.Phase2.Normal.Cost != par.Phase2.Normal.Cost {
		t.Errorf("phase 2 normal cost %+v != %+v", serial.Phase2.Normal.Cost, par.Phase2.Normal.Cost)
	}
	if serial.Phase2.Stats.Evaluations != par.Phase2.Stats.Evaluations {
		t.Errorf("phase 2 evaluations %d != %d", serial.Phase2.Stats.Evaluations, par.Phase2.Stats.Evaluations)
	}
}

// TestRunPhase2SetMatchesFailureSet checks RunPhase2 against RunPhase2Set
// on hand-built equivalent scenario sets: both searches consume the same
// RNG stream move for move, so every result must be bit-identical. The
// cases cover links only, fiber-cut semantics, and a mixed set whose
// nodes carry probabilities while its links do not.
func TestRunPhase2SetMatchesFailureSet(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 13
	links := []int{0, 3, 11, 17}
	linkScenarios := func(both bool) []scenario.Scenario {
		var out []scenario.Scenario
		for _, l := range links {
			out = append(out, scenario.LinkFailure{Links: []int{l}, Both: both})
		}
		return out
	}
	cases := []struct {
		name  string
		fs    FailureSet
		set   []scenario.Scenario
		probs []float64
	}{
		{"links", FailureSet{Links: links}, linkScenarios(false), nil},
		{"both", FailureSet{Links: links, Both: true}, linkScenarios(true), nil},
		{"node-probs", FailureSet{Links: links, Nodes: []int{2, 6}, NodeProbs: []float64{0.5, 3}},
			append(linkScenarios(false), scenario.NodeFailure{Node: 2}, scenario.NodeFailure{Node: 6}),
			[]float64{1, 1, 1, 1, 0.5, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oA := New(equivalenceEvaluator(t, topogen.RandKind, 8, 40, 41), cfg)
			a := oA.RunPhase2(oA.RunPhase1(), tc.fs)
			oB := New(equivalenceEvaluator(t, topogen.RandKind, 8, 40, 41), cfg)
			b := oB.RunPhase2Set(oB.RunPhase1(), scenario.Set{Scenarios: tc.set}, tc.probs)
			if !a.BestW.Equal(b.BestW) {
				t.Error("scenario-set phase 2 weights differ from failure-set path")
			}
			if a.FailCost != b.FailCost {
				t.Errorf("fail cost %+v != %+v", a.FailCost, b.FailCost)
			}
			if !reflect.DeepEqual(a.Normal, b.Normal) {
				t.Errorf("normal evaluation %+v != %+v", a.Normal, b.Normal)
			}
			if a.Stats.Evaluations != b.Stats.Evaluations {
				t.Errorf("evaluations %d != %d", a.Stats.Evaluations, b.Stats.Evaluations)
			}
		})
	}
}

// TestRunPhase2SetSurgeEquivalence runs the generalized robust search
// over a mixed failure+surge set in both evaluation modes; the surge
// scenarios exercise sessions with demand overrides inside the search
// loop.
func TestRunPhase2SetSurgeEquivalence(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 17

	build := func(full bool) (*Phase2Result, *routing.Evaluator) {
		c := cfg
		c.FullEval = full
		ev := equivalenceEvaluator(t, topogen.RandKind, 8, 40, 43)
		o := New(ev, c)
		p1 := o.RunPhase1()
		set := scenario.Merge("mixed",
			scenario.Set{Scenarios: []scenario.Scenario{
				scenario.LinkFailure{Links: []int{2}},
				scenario.NodeFailure{Node: 5},
			}},
			scenario.HotspotSurges(ev.DemandDelay(), ev.DemandThroughput(), traffic.DefaultHotspot(true), 2, 9),
		)
		return o.RunPhase2Set(p1, set, nil), ev
	}
	full, _ := build(true)
	inc, _ := build(false)
	if !full.BestW.Equal(inc.BestW) {
		t.Error("mixed-set phase 2 weights differ between modes")
	}
	if full.FailCost != inc.FailCost {
		t.Errorf("mixed-set fail cost %+v != %+v", full.FailCost, inc.FailCost)
	}
}

// TestIncrementalMatchesFullEvalNodeObjective covers the node-failure
// Phase 2 objective, where sessions carry skipNode semantics.
func TestIncrementalMatchesFullEvalNodeObjective(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 11

	cfgFull := cfg
	cfgFull.FullEval = true
	evFull := equivalenceEvaluator(t, topogen.RandKind, 8, 40, 31)
	oFull := New(evFull, cfgFull)
	p1Full := oFull.RunPhase1()
	p2Full := oFull.RunPhase2(p1Full, AllNodeFailures(evFull))

	cfgInc := cfg
	cfgInc.FullEval = false
	evInc := equivalenceEvaluator(t, topogen.RandKind, 8, 40, 31)
	oInc := New(evInc, cfgInc)
	p1Inc := oInc.RunPhase1()
	p2Inc := oInc.RunPhase2(p1Inc, AllNodeFailures(evInc))

	if !p2Full.BestW.Equal(p2Inc.BestW) {
		t.Error("node-objective phase 2 weights differ")
	}
	if p2Full.FailCost != p2Inc.FailCost {
		t.Errorf("node-objective fail cost %+v != %+v", p2Full.FailCost, p2Inc.FailCost)
	}
}

// phase2Case is one robust search the pruned scenario sweep must run
// exactly like the from-scratch oracle.
type phase2Case struct {
	name string
	ev   *routing.Evaluator
	cfg  Config
	// scenarios renders the searched set (and its weights) from the
	// Phase 1 result.
	scenarios func(o *Optimizer, p1 *Phase1Result) (scenario.Set, []float64)
	// prunes is whether the serial session run must skip scenario
	// updates: false for the cases whose premises fail, which must never
	// stop a sweep early.
	prunes bool
}

// failureSet adapts a fixed FailureSet to phase2Case.scenarios.
func failureSet(fs FailureSet) func(*Optimizer, *Phase1Result) (scenario.Set, []float64) {
	return func(*Optimizer, *Phase1Result) (scenario.Set, []float64) { return fs.scenarios() }
}

// runPhase2Case runs Phase 1 once, then Phase 2 over the case's set on
// fresh optimizers with the same seed: from scratch, and on sessions at
// GOMAXPROCS 1 and 3. The session runs must reproduce the oracle's
// weights, failure cost and normal-conditions result bit for bit, and
// agree with each other on the logical evaluation count; which updates
// they skip may differ, but the serial run's skips are deterministic,
// so the case's pruning expectation is checked there. It returns the
// serial run.
func runPhase2Case(t *testing.T, tc phase2Case) (serial *Phase2Result) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	o := New(tc.ev, tc.cfg)
	p1 := o.RunPhase1()
	set, probs := tc.scenarios(o, p1)
	run := func(full bool) *Phase2Result {
		c := tc.cfg
		c.FullEval = full
		return New(tc.ev, c).RunPhase2Set(p1, set, probs)
	}
	full := run(true)
	if full.Stats.Pruned != 0 {
		t.Errorf("FullEval skipped %d scenario updates", full.Stats.Pruned)
	}
	var evals int
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		inc := run(false)
		if !full.BestW.Equal(inc.BestW) {
			t.Errorf("procs=%d: phase 2 best weights differ", procs)
		}
		if math.Float64bits(full.FailCost.Lambda) != math.Float64bits(inc.FailCost.Lambda) ||
			math.Float64bits(full.FailCost.Phi) != math.Float64bits(inc.FailCost.Phi) {
			t.Errorf("procs=%d: phase 2 fail cost %+v != %+v", procs, inc.FailCost, full.FailCost)
		}
		if !reflect.DeepEqual(full.Normal, inc.Normal) {
			t.Errorf("procs=%d: phase 2 normal result %+v != %+v", procs, inc.Normal, full.Normal)
		}
		if procs == 1 {
			serial, evals = inc, inc.Stats.Evaluations
			if got := inc.Stats.Pruned > 0; got != tc.prunes {
				t.Errorf("skipped %d of %d scenario updates; want pruning %v", inc.Stats.Pruned, evals, tc.prunes)
			}
		} else if inc.Stats.Evaluations != evals {
			t.Errorf("procs=%d: %d evaluations, serial run %d", procs, inc.Stats.Evaluations, evals)
		}
		t.Logf("procs=%d: %d of %d phase 2 evaluations pruned", procs, inc.Stats.Pruned, inc.Stats.Evaluations)
	}
	return serial
}

// TestPrunedPhase2MatchesFullEval covers the pruned scenario sweep
// beyond the pipeline cases above: a weighted set with non-uniform and
// zero weights, the 100-node RandTopo, failure scenarios that carry SLA
// penalties (Λ > 0, so the Λ test decides; see also
// TestScenarioSweepProvesLambdaLoss), and the shape of the optimize-30
// benchmark (its 30-node RandTopo and 27 critical links). The premise
// cases — a negative weight, a negative demand override and a negative
// SLA penalty — must match the oracle without ever stopping early.
func TestPrunedPhase2MatchesFullEval(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 7
	rand8 := equivalenceEvaluator(t, topogen.RandKind, 8, 40, 21)
	links := []int{0, 3, 7, 11, 19, 23, 29, 33}
	weighted := FailureSet{
		Links:     links,
		LinkProbs: []float64{0.5, 0, 2, 0.01, 1, 0, 3, 0.2},
		Nodes:     []int{2, 5},
		NodeProbs: []float64{0, 1.5},
	}
	negative := weighted
	negative.LinkProbs = slices.Clone(weighted.LinkProbs)
	negative.LinkProbs[4] = -1

	negDem := rand8.DemandThroughput().Clone()
	negDem.Set(1, 4, -50)
	linkSet, _ := FailureSet{Links: links}.scenarios()

	negPenalty := cost.DefaultParams()
	negPenalty.B1 = -100
	tightSLA := cost.DefaultParams()
	tightSLA.ThetaMs = 20

	// The optimize-30 network at a budget the oracle runs in a second:
	// four Phase 1 passes and one Phase 2 pass.
	opt30 := QuickConfig()
	opt30.Seed = 1
	opt30.MaxIter1, opt30.MaxIter2 = 4, 1
	net30 := optimize30Evaluator(t)
	critical := func(frac float64, want int) func(*Optimizer, *Phase1Result) (scenario.Set, []float64) {
		return func(o *Optimizer, p1 *Phase1Result) (scenario.Set, []float64) {
			o.TopUpSamples(p1)
			links := o.SelectCritical(p1, frac)
			if len(links) != want {
				t.Fatalf("selected %d critical links, want %d", len(links), want)
			}
			return FailureSet{Links: links}.scenarios()
		}
	}
	// One Phase 2 pass over the 100-node RandTopo's 500 links.
	small := cfg
	small.MaxIter1, small.Div1Interval = 1, 1
	small.MaxIter2, small.Div2Interval = 1, 1

	for _, tc := range []phase2Case{
		{"weighted-zero-probs", rand8, cfg, failureSet(weighted), true},
		{"negative-prob", rand8, cfg, failureSet(negative), false},
		{"negative-demand", rand8, cfg, func(*Optimizer, *Phase1Result) (scenario.Set, []float64) {
			return scenario.WithTraffic(linkSet, nil, negDem, "+negative"), nil
		}, false},
		{"negative-penalty", withParams(rand8, negPenalty), cfg, failureSet(FailureSet{Links: links}), false},
		{"rand100", equivalenceEvaluator(t, topogen.RandKind, 100, 300, 23), small,
			failureSet(FailureSet{Links: []int{40, 150, 233}}), true},
		{"sla-lambda", withParams(net30, tightSLA), opt30, critical(0.05, 9), true},
		{"optimize30", net30, opt30, critical(0.15, 27), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := runPhase2Case(t, tc)
			if tc.name == "sla-lambda" && !(res.FailCost.Lambda > 0) {
				t.Errorf("failure scenarios carry no SLA penalty: %+v", res.FailCost)
			}
		})
	}
}

// withParams is ev's network and traffic under other cost-model
// constants.
func withParams(ev *routing.Evaluator, p cost.Params) *routing.Evaluator {
	return routing.NewEvaluator(ev.Graph(), ev.DemandDelay(), ev.DemandThroughput(), p, routing.WorstPath)
}

// optimize30Evaluator builds the optimize-30 benchmark's seed-1 network
// the way repro.NewNetwork builds rand/30/180: three edges per node, a
// 20 ms propagation diameter, 43% average utilization.
func optimize30Evaluator(t testing.TB) *routing.Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	g, err := topogen.Generate(topogen.Spec{Kind: topogen.RandKind, Nodes: 30, DirectedLinks: 180, EdgesPerNode: 3, DiameterMs: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	demD, demT := traffic.Gravity(g.NumNodes(), 1, 0.3, rng)
	if _, err := routing.ScaleToAvgUtil(g, demD, demT, 0.43); err != nil {
		t.Fatal(err)
	}
	return routing.NewEvaluator(g, demD, demT, cost.DefaultParams(), routing.WorstPath)
}

// TestScenarioSweepProvesLambdaLoss drives the pruned sweep directly,
// serially, on the optimize-30 network under a tight SLA bound, where
// failure scenarios carry SLA penalties. From one weight setting it
// tries every link at both extreme weights against the setting's own
// cost, then rejects the move. It requires that some sweep stops early
// while its partial Φ is still below the current Φ, which only the Λ
// test can prove, and that after every rejection each session's result
// equals the from-scratch evaluation at the
// unchanged setting: reverting only the sessions that applied restores
// the accepted state, including for the sessions a stop skipped.
func TestScenarioSweepProvesLambdaLoss(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tightSLA := cost.DefaultParams()
	tightSLA.ThetaMs = 20
	ev := withParams(optimize30Evaluator(t), tightSLA)
	g := ev.Graph()
	set, probs := FailureSet{Links: []int{3, 17, 42, 64, 99, 131, 160}}.scenarios()
	scens := renderScenarios(g, set)
	if !prunable(ev, scens, probs) {
		t.Fatal("premises fail on a nonnegative network")
	}
	fses := make([]*routing.Session, len(scens))
	want := make([]routing.Result, len(scens))
	w := routing.RandomWeightSetting(g.NumLinks(), 20, rand.New(rand.NewSource(5)))
	for i, sc := range scens {
		fses[i] = ev.NewScenarioSession(sc.mask, sc.skip, sc.demD, sc.demT)
		ev.EvaluateDemands(w, sc.mask, sc.skip, sc.demD, sc.demT, &want[i])
	}
	results := make([]routing.Result, len(scens))
	sweep := newScenarioSweep(fses, probs, results, true)
	sweep.rebase(w)
	cur := weightedCost(probs, results)
	if !(cur.Lambda > 0) {
		t.Fatalf("failure scenarios carry no SLA penalty: %+v", cur)
	}
	lambdaProofs := 0
	for l := 0; l < g.NumLinks(); l++ {
		for _, wl := range []int32{1, 20} {
			if sweep.apply(l, wl, wl, cur) > 0 && sweep.partial.Phi < cur.Phi {
				lambdaProofs++
			}
			sweep.revert()
			for i := range results {
				if !reflect.DeepEqual(results[i], want[i]) {
					t.Fatalf("link %d weight %d: scenario %d result %+v after revert, want %+v", l, wl, i, results[i], want[i])
				}
			}
		}
	}
	if lambdaProofs == 0 {
		t.Fatal("no sweep stopped on the Λ test alone")
	}
	t.Logf("%d of %d moves proved lost by Λ alone", lambdaProofs, 2*g.NumLinks())
}
