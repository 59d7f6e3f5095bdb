package opt

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// testEvaluator builds a small random network with moderate load, big
// enough to have alternate paths but small enough for fast tests.
func testEvaluator(t testing.TB, seed int64) *routing.Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := topogen.MustGenerate(topogen.Spec{Kind: topogen.RandKind, Nodes: 8, DirectedLinks: 40}, rng)
	demD, demT := traffic.Gravity(8, 1, 0.3, rng)
	if _, err := routing.ScaleToAvgUtil(g, demD, demT, 0.4); err != nil {
		t.Fatal(err)
	}
	return routing.NewEvaluator(g, demD, demT, cost.DefaultParams(), routing.WorstPath)
}

// testConfig returns a tiny search budget for fast unit tests.
func testConfig() Config {
	c := QuickConfig()
	c.Tau = 3
	c.MaxIter1 = 12
	c.MaxIter2 = 6
	c.Div1Interval = 3
	c.Div2Interval = 2
	c.P1 = 2
	c.P2 = 1
	c.MaxTopUpBatches = 4
	return c
}

func TestPhase1ImprovesOverRandom(t *testing.T) {
	ev := testEvaluator(t, 1)
	o := New(ev, testConfig())
	// Cost of a fresh random setting for reference.
	var randomRes routing.Result
	ev.EvaluateNormal(routing.RandomWeightSetting(ev.Graph().NumLinks(), 20, rand.New(rand.NewSource(99))), &randomRes)
	p1 := o.RunPhase1()
	if randomRes.Cost.Less(p1.Best.Cost) {
		t.Errorf("phase 1 best %+v worse than a random setting %+v", p1.Best.Cost, randomRes.Cost)
	}
	if p1.Stats.Evaluations == 0 || p1.Stats.Iterations == 0 {
		t.Error("no work recorded")
	}
	if len(p1.Pool) == 0 {
		t.Error("pool must never be empty (best is always acceptable)")
	}
}

func TestPhase1PoolEntriesSatisfyGates(t *testing.T) {
	ev := testEvaluator(t, 2)
	o := New(ev, testConfig())
	p1 := o.RunPhase1()
	bound := (1 + o.cfg.Chi) * p1.Best.Cost.Phi
	for i, e := range p1.Pool {
		if !e.Normal.SameLambda(p1.Best.Cost) {
			t.Errorf("pool[%d] lambda %g != best %g", i, e.Normal.Lambda, p1.Best.Cost.Lambda)
		}
		if e.Normal.Phi > bound+1e-9 {
			t.Errorf("pool[%d] phi %g exceeds bound %g", i, e.Normal.Phi, bound)
		}
		// Stored costs must match a re-evaluation of the stored weights.
		var re routing.Result
		ev.EvaluateNormal(e.W, &re)
		if re.Cost != e.Normal {
			t.Errorf("pool[%d] stored cost %+v, re-eval %+v", i, e.Normal, re.Cost)
		}
	}
}

func TestPhase1Deterministic(t *testing.T) {
	a := New(testEvaluator(t, 3), testConfig()).RunPhase1()
	b := New(testEvaluator(t, 3), testConfig()).RunPhase1()
	if a.Best.Cost != b.Best.Cost {
		t.Errorf("same seed, different best: %+v vs %+v", a.Best.Cost, b.Best.Cost)
	}
	if !a.BestW.Equal(b.BestW) {
		t.Error("same seed, different weights")
	}
	if a.Sampler.Total() != b.Sampler.Total() {
		t.Errorf("same seed, different sample counts: %d vs %d", a.Sampler.Total(), b.Sampler.Total())
	}
}

func TestTopUpSamplesExactMode(t *testing.T) {
	ev := testEvaluator(t, 4)
	cfg := testConfig() // ExactPhase1b is on by default
	o := New(ev, cfg)
	p1 := o.RunPhase1()
	o.TopUpSamples(p1)
	if !p1.Converged {
		t.Error("exact Phase 1b must produce a final (converged) estimate")
	}
	m := ev.Graph().NumLinks()
	// One exact sample per (pool entry, link) pair.
	if want := len(p1.Pool) * m; p1.Sampler.Total() != want {
		t.Errorf("samples = %d, want %d", p1.Sampler.Total(), want)
	}
	if p1.Sampler.MinCount() != len(p1.Pool) {
		t.Errorf("per-link samples = %d, want pool size %d", p1.Sampler.MinCount(), len(p1.Pool))
	}
}

func TestTopUpSamplesEmulationMode(t *testing.T) {
	ev := testEvaluator(t, 4)
	cfg := testConfig()
	cfg.ExactPhase1b = false
	o := New(ev, cfg)
	p1 := o.RunPhase1()
	before := p1.Sampler.Total()
	o.TopUpSamples(p1)
	if !p1.Converged && p1.Sampler.Total()-before < cfg.Tau*ev.Graph().NumLinks() {
		t.Errorf("top-up neither converged nor sampled a full batch: %d new", p1.Sampler.Total()-before)
	}
	if p1.Converged {
		// A converged run must have performed at least two checks.
		sl, sp := p1.Tracker.LastIndices()
		if sl > cfg.ConvThreshold || sp > cfg.ConvThreshold {
			t.Errorf("converged but indices %g/%g above threshold", sl, sp)
		}
	}
	// Every link has samples after a top-up batch.
	if p1.Sampler.MinCount() == 0 && p1.Sampler.Total() > before {
		t.Error("top-up should cover all links")
	}
}

func TestSelectCriticalSize(t *testing.T) {
	ev := testEvaluator(t, 5)
	o := New(ev, testConfig())
	p1 := o.RunPhase1()
	o.TopUpSamples(p1)
	crit := o.SelectCritical(p1, 0.15)
	m := ev.Graph().NumLinks()
	want := int(math.Round(0.15 * float64(m)))
	if len(crit) > want {
		t.Errorf("critical set size %d exceeds target %d", len(crit), want)
	}
	if len(crit) == 0 {
		t.Error("critical set must not be empty")
	}
	for _, l := range crit {
		if l < 0 || l >= m {
			t.Errorf("link %d out of range", l)
		}
	}
}

func TestPhase2RespectsConstraints(t *testing.T) {
	ev := testEvaluator(t, 6)
	o := New(ev, testConfig())
	p1 := o.RunPhase1()
	o.TopUpSamples(p1)
	crit := o.SelectCritical(p1, 0.2)
	p2 := o.RunPhase2(p1, FailureSet{Links: crit})
	// Eq. (5): no delay-class degradation under normal conditions.
	if p2.Normal.Cost.Lambda > p1.Best.Cost.Lambda+1e-9 {
		t.Errorf("phase 2 lambda %g exceeds lambda* %g", p2.Normal.Cost.Lambda, p1.Best.Cost.Lambda)
	}
	// Eq. (6): bounded throughput degradation.
	if p2.Normal.Cost.Phi > (1+o.cfg.Chi)*p1.Best.Cost.Phi+1e-9 {
		t.Errorf("phase 2 phi %g exceeds (1+chi) bound", p2.Normal.Cost.Phi)
	}
}

func TestPhase2ImprovesFailureCost(t *testing.T) {
	ev := testEvaluator(t, 7)
	o := New(ev, testConfig())
	p1 := o.RunPhase1()
	// Failure cost of the regular solution before robust optimization.
	regularFail := scenario.Runner{}.Run(ev, p1.BestW, scenario.SingleLinkFailures(ev.Graph())).Summary().TotalCost
	p2 := o.RunPhase2(p1, AllLinkFailures(ev))
	if regularFail.Less(p2.FailCost) {
		t.Errorf("robust fail cost %+v worse than regular %+v", p2.FailCost, regularFail)
	}
}

func TestPhase2NodeFailureObjective(t *testing.T) {
	ev := testEvaluator(t, 8)
	o := New(ev, testConfig())
	p1 := o.RunPhase1()
	p2 := o.RunPhase2(p1, AllNodeFailures(ev))
	if p2.BestW == nil {
		t.Fatal("nil best weights")
	}
	if p2.FailCost.Lambda < 0 || math.IsInf(p2.FailCost.Lambda, 0) {
		t.Errorf("implausible node-failure cost %+v", p2.FailCost)
	}
}

// TestFailureSetRenderingOrder: a FailureSet renders links first, then
// nodes, in the order listed, and the runner evaluates the rendering in
// that order.
func TestFailureSetRenderingOrder(t *testing.T) {
	ev := testEvaluator(t, 11)
	w := routing.NewWeightSetting(ev.Graph().NumLinks())
	set, probs := FailureSet{Links: []int{0, 5}, Nodes: []int{2}, Both: true}.scenarios()
	want := []scenario.Scenario{
		scenario.LinkFailure{Links: []int{0}, Both: true},
		scenario.LinkFailure{Links: []int{5}, Both: true},
		scenario.NodeFailure{Node: 2},
	}
	if !reflect.DeepEqual(set.Scenarios, want) || probs != nil {
		t.Fatalf("rendering = %+v, weights %v", set.Scenarios, probs)
	}
	rs := scenario.Runner{}.Run(ev, w, set).Results
	var link0, link5, node2 routing.Result
	ev.EvaluateLinkFailure(w, 0, true, &link0)
	ev.EvaluateLinkFailure(w, 5, true, &link5)
	ev.EvaluateNodeFailure(w, 2, &node2)
	if rs[0].Cost != link0.Cost || rs[1].Cost != link5.Cost || rs[2].Cost != node2.Cost {
		t.Error("result order does not match scenario order")
	}
	// A class without probabilities weighs 1.
	_, probs = FailureSet{Links: []int{3, 4}, Nodes: []int{1}, NodeProbs: []float64{0.25}}.scenarios()
	if !reflect.DeepEqual(probs, []float64{1, 1, 0.25}) {
		t.Errorf("partial weights = %v", probs)
	}
}

// TestAllLinkAndNodeFailures: the full sets list every link and every
// node, in index order.
func TestAllLinkAndNodeFailures(t *testing.T) {
	ev := testEvaluator(t, 11)
	links, nodes := AllLinkFailures(ev).Links, AllNodeFailures(ev).Nodes
	if len(links) != ev.Graph().NumLinks() || len(nodes) != ev.Graph().NumNodes() {
		t.Fatalf("full sets cover %d links and %d nodes", len(links), len(nodes))
	}
	for i, l := range links {
		if l != i {
			t.Fatalf("AllLinkFailures = %v", links)
		}
	}
	for i, v := range nodes {
		if v != i {
			t.Fatalf("AllNodeFailures = %v", nodes)
		}
	}
}

func TestRelGain(t *testing.T) {
	cases := []struct {
		prev, cur cost.Cost
		want      float64
	}{
		{cost.Cost{Lambda: 100, Phi: 1}, cost.Cost{Lambda: 0, Phi: 5}, 1},  // lambda drop = full gain
		{cost.Cost{Lambda: 0, Phi: 10}, cost.Cost{Lambda: 0, Phi: 9}, 0.1}, // 10% phi gain
		{cost.Cost{Lambda: 0, Phi: 10}, cost.Cost{Lambda: 0, Phi: 10}, 0},  // no change
		{cost.Cost{Lambda: 0, Phi: 10}, cost.Cost{Lambda: 0, Phi: 12}, 0},  // regression clamps to 0
		{cost.Cost{Lambda: 0, Phi: 0}, cost.Cost{Lambda: 0, Phi: 0}, 0},    // zero baseline
	}
	for _, tc := range cases {
		if got := relGain(tc.prev, tc.cur); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("relGain(%v,%v) = %g, want %g", tc.prev, tc.cur, got, tc.want)
		}
	}
}

func TestPoolOrderingAndCap(t *testing.T) {
	p := newPool(3)
	w := routing.NewWeightSetting(4)
	add := func(lambda, phi float64, dw int32) {
		w.Set(0, dw, dw)
		p.consider(w, cost.Cost{Lambda: lambda, Phi: phi})
	}
	add(0, 5, 2)
	add(0, 3, 3)
	add(0, 7, 4)
	add(0, 4, 5)
	if p.size() != 3 {
		t.Fatalf("pool size %d, want 3 (capped)", p.size())
	}
	if p.entries[0].Normal.Phi != 3 || p.entries[2].Normal.Phi != 5 {
		t.Errorf("pool not ordered: %v", []float64{p.entries[0].Normal.Phi, p.entries[1].Normal.Phi, p.entries[2].Normal.Phi})
	}
}

func TestPoolFiltered(t *testing.T) {
	p := newPool(5)
	w := routing.NewWeightSetting(2)
	w.Set(0, 2, 2)
	p.consider(w, cost.Cost{Lambda: 0, Phi: 10})
	w.Set(0, 3, 3)
	p.consider(w, cost.Cost{Lambda: 0, Phi: 13}) // > (1.2)*10: filtered out
	w.Set(0, 4, 4)
	p.consider(w, cost.Cost{Lambda: 100, Phi: 1}) // wrong lambda
	got := p.filtered(cost.Cost{Lambda: 0, Phi: 10}, 0.2)
	if len(got) != 1 || got[0].Normal.Phi != 10 {
		t.Errorf("filtered = %+v, want single phi=10 entry", got)
	}
}

func TestPoolRejectsDuplicates(t *testing.T) {
	p := newPool(5)
	w := routing.NewWeightSetting(2)
	p.consider(w, cost.Cost{Lambda: 0, Phi: 1})
	p.consider(w, cost.Cost{Lambda: 0, Phi: 1})
	if p.size() != 1 {
		t.Errorf("duplicate accepted: size %d", p.size())
	}
}

func TestConfigDefaultsMatchPaper(t *testing.T) {
	c := DefaultConfig()
	if c.WMax != 20 || c.Chi != 0.2 || c.Z != 0.5 || c.Q != 0.7 {
		t.Errorf("model constants drifted: %+v", c)
	}
	if c.P1 != 20 || c.P2 != 10 || c.Div1Interval != 100 || c.Div2Interval != 30 {
		t.Errorf("search budgets drifted: %+v", c)
	}
	if c.Tau != 30 || c.ConvThreshold != 2 || c.LeftTailFrac != 0.1 || c.CFrac != 0.001 {
		t.Errorf("sampling constants drifted: %+v", c)
	}
	if c.TargetCriticalFrac != 0.15 {
		t.Errorf("|Ec|/|E| default %g, want 0.15", c.TargetCriticalFrac)
	}
}

func TestFailureSetSize(t *testing.T) {
	fs := FailureSet{Links: []int{1, 2, 3}, Nodes: []int{0}}
	if fs.Size() != 4 {
		t.Errorf("Size = %d, want 4", fs.Size())
	}
}

func TestNewRejectsBadWMax(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	cfg := testConfig()
	cfg.WMax = 1
	New(testEvaluator(t, 12), cfg)
}
