package routing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/spf"
	"repro/internal/traffic"
)

// twoPath builds a 4-node network with two disjoint paths between node 0
// and node 3 (via 1 and via 2), and distinct propagation delays so the
// tests can steer traffic deliberately.
//
// Link indices: 0:0->1 1:1->0 2:0->2 3:2->0 4:1->3 5:3->1 6:2->3 7:3->2
func twoPath(capacity float64) *graph.Graph {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, capacity, 5)
	b.AddEdge(0, 2, capacity, 10)
	b.AddEdge(1, 3, capacity, 5)
	b.AddEdge(2, 3, capacity, 10)
	return b.MustBuild()
}

func singleDemand(n, s, t int, mbps float64) *traffic.Matrix {
	m := traffic.NewMatrix(n)
	m.Set(s, t, mbps)
	return m
}

func defaultEval(g *graph.Graph, demD, demT *traffic.Matrix) *Evaluator {
	return NewEvaluator(g, demD, demT, cost.DefaultParams(), WorstPath)
}

func TestWeightSettingBasics(t *testing.T) {
	w := NewWeightSetting(4)
	for i := 0; i < 4; i++ {
		if w.Delay[i] != 1 || w.Throughput[i] != 1 {
			t.Fatalf("NewWeightSetting not all ones: %v %v", w.Delay, w.Throughput)
		}
	}
	pd, pt := w.Set(2, 7, 9)
	if pd != 1 || pt != 1 || w.Delay[2] != 7 || w.Throughput[2] != 9 {
		t.Error("Set did not swap values")
	}
	c := w.Clone()
	if !c.Equal(w) {
		t.Error("clone not equal")
	}
	c.Set(0, 3, 3)
	if c.Equal(w) {
		t.Error("clone shares storage")
	}
	w2 := NewWeightSetting(4)
	w2.CopyFrom(w)
	if !w2.Equal(w) {
		t.Error("CopyFrom mismatch")
	}
}

func TestRandomWeightSettingRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := RandomWeightSetting(1000, 20, rng)
	for i := 0; i < w.Len(); i++ {
		if w.Delay[i] < 1 || w.Delay[i] > 20 || w.Throughput[i] < 1 || w.Throughput[i] > 20 {
			t.Fatalf("weight out of range at %d: %d %d", i, w.Delay[i], w.Throughput[i])
		}
	}
}

func TestEvaluateDelayWithinSLA(t *testing.T) {
	g := twoPath(500)
	// Route 10 Mbps of delay traffic 0->3; lightly loaded network, so
	// end-to-end delay is pure propagation: best path 0-1-3 = 10 ms.
	e := defaultEval(g, singleDemand(4, 0, 3, 10), traffic.NewMatrix(4))
	e.Detail = true
	w := NewWeightSetting(g.NumLinks())
	var res Result
	e.EvaluateNormal(w, &res)
	if res.Violations != 0 {
		t.Errorf("violations = %d, want 0", res.Violations)
	}
	if res.Cost.Lambda != 0 {
		t.Errorf("lambda = %g, want 0", res.Cost.Lambda)
	}
	// ECMP over both unit-weight paths: worst is via node 2 (20 ms).
	if d := res.PairDelay[0*4+3]; math.Abs(d-20) > 1e-9 {
		t.Errorf("pair delay = %g, want worst-path 20", d)
	}
}

func TestEvaluateSLAViolation(t *testing.T) {
	g := twoPath(500)
	params := cost.DefaultParams()
	params.ThetaMs = 15 // worst ECMP path is 20 ms -> violation
	e := NewEvaluator(g, singleDemand(4, 0, 3, 10), traffic.NewMatrix(4), params, WorstPath)
	w := NewWeightSetting(g.NumLinks())
	var res Result
	e.EvaluateNormal(w, &res)
	if res.Violations != 1 {
		t.Fatalf("violations = %d, want 1", res.Violations)
	}
	want := params.B1 + params.B2*5 // excess 5 ms
	if math.Abs(res.Cost.Lambda-want) > 1e-9 {
		t.Errorf("lambda = %g, want %g", res.Cost.Lambda, want)
	}
}

func TestEvaluateSteeringByWeights(t *testing.T) {
	g := twoPath(500)
	params := cost.DefaultParams()
	params.ThetaMs = 15
	e := NewEvaluator(g, singleDemand(4, 0, 3, 10), traffic.NewMatrix(4), params, WorstPath)
	w := NewWeightSetting(g.NumLinks())
	// Push delay traffic off the slow lower path: raise W_D on 0->2.
	w.Delay[2] = 10
	var res Result
	e.EvaluateNormal(w, &res)
	if res.Violations != 0 {
		t.Errorf("violations = %d, want 0 after steering", res.Violations)
	}
}

func TestDualTopologyIndependence(t *testing.T) {
	// The two classes must route independently: throughput weights must
	// not affect delay paths and vice versa.
	g := twoPath(500)
	e := defaultEval(g, singleDemand(4, 0, 3, 10), singleDemand(4, 0, 3, 50))
	e.Detail = true
	w := NewWeightSetting(g.NumLinks())
	w.Delay[2] = 10      // delay class avoids lower path
	w.Throughput[0] = 10 // throughput class avoids upper path
	var res Result
	e.EvaluateNormal(w, &res)
	// Delay load on upper (links 0,4), throughput on lower (2,6).
	if res.LoadTotal[0] != 10 || res.LoadTotal[4] != 10 {
		t.Errorf("upper path loads = %g,%g want 10,10", res.LoadTotal[0], res.LoadTotal[4])
	}
	if res.LoadThroughput[2] != 50 || res.LoadThroughput[6] != 50 {
		t.Errorf("lower path T loads = %g,%g want 50,50", res.LoadThroughput[2], res.LoadThroughput[6])
	}
	if res.LoadThroughput[0] != 0 {
		t.Errorf("throughput leaked onto upper path: %g", res.LoadThroughput[0])
	}
}

func TestClassesShareQueues(t *testing.T) {
	// Queueing delay depends on TOTAL load: throughput traffic on the
	// delay path must increase the delay class's end-to-end delay.
	g := twoPath(100)
	params := cost.DefaultParams()
	params.ThetaMs = 10.2
	demD := singleDemand(4, 0, 3, 1)
	demT := singleDemand(4, 0, 3, 96) // push util to 97% on shared path
	e := NewEvaluator(g, demD, demT, params, WorstPath)
	w := NewWeightSetting(g.NumLinks())
	// Both classes forced onto upper path.
	w.Delay[2], w.Delay[6] = 20, 20
	w.Throughput[2], w.Throughput[6] = 20, 20
	var res Result
	e.EvaluateNormal(w, &res)
	if res.Violations != 1 {
		t.Errorf("violations = %d, want 1 (queueing pushed delay over SLA)", res.Violations)
	}
	// Remove throughput traffic: delay class is fine again.
	e2 := NewEvaluator(g, demD, traffic.NewMatrix(4), params, WorstPath)
	e2.EvaluateNormal(w, &res)
	if res.Violations != 0 {
		t.Errorf("violations without T traffic = %d, want 0", res.Violations)
	}
}

func TestPhiCountsOnlyLinksCarryingThroughput(t *testing.T) {
	g := twoPath(500)
	e := defaultEval(g, singleDemand(4, 0, 3, 30), singleDemand(4, 0, 3, 60))
	w := NewWeightSetting(g.NumLinks())
	w.Delay[2] = 10      // delay on upper only
	w.Throughput[0] = 10 // throughput on lower only
	var res Result
	e.EvaluateNormal(w, &res)
	// Φ = sum over lower-path links of f(total)=f(60) (slope-1 region).
	want := 60.0 + 60.0
	if math.Abs(res.Cost.Phi-want) > 1e-9 {
		t.Errorf("phi = %g, want %g (upper path carries no T traffic)", res.Cost.Phi, want)
	}
}

func TestLinkFailureReroutes(t *testing.T) {
	g := twoPath(500)
	e := defaultEval(g, singleDemand(4, 0, 3, 10), traffic.NewMatrix(4))
	e.Detail = true
	w := NewWeightSetting(g.NumLinks())
	w.Delay[2] = 10 // prefer upper path
	var res Result
	e.EvaluateLinkFailure(w, 0, false, &res) // kill 0->1
	// Traffic must flow via lower path now; delay = 20ms.
	if d := res.PairDelay[0*4+3]; math.Abs(d-20) > 1e-9 {
		t.Errorf("post-failure delay = %g, want 20", d)
	}
	if res.Disconnected != 0 {
		t.Errorf("disconnected = %d, want 0", res.Disconnected)
	}
}

func TestLinkFailureDisconnects(t *testing.T) {
	// Star: node 0 hangs off node 1 by a single edge.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 500, 5) // links 0,1
	b.AddEdge(1, 2, 500, 5) // links 2,3
	g := b.MustBuild()
	demD := singleDemand(3, 0, 2, 10)
	demT := singleDemand(3, 0, 2, 20)
	e := defaultEval(g, demD, demT)
	w := NewWeightSetting(g.NumLinks())
	var res Result
	e.EvaluateLinkFailure(w, 0, false, &res)
	if res.Disconnected != 1 || res.Violations != 1 {
		t.Fatalf("disconnected=%d violations=%d, want 1,1", res.Disconnected, res.Violations)
	}
	p := cost.DefaultParams()
	if math.Abs(res.Cost.Lambda-p.DropPenalty()) > 1e-9 {
		t.Errorf("lambda = %g, want drop penalty %g", res.Cost.Lambda, p.DropPenalty())
	}
	if res.Cost.Phi < 20*5000 {
		t.Errorf("phi = %g, want at least the drop charge %g", res.Cost.Phi, 20.0*5000)
	}
}

func TestNodeFailureRemovesTraffic(t *testing.T) {
	g := twoPath(500)
	demD := traffic.NewMatrix(4)
	demD.Set(0, 3, 10)
	demD.Set(1, 3, 10) // traffic sourced at the failing node
	demD.Set(0, 1, 10) // traffic sunk at the failing node
	e := defaultEval(g, demD, traffic.NewMatrix(4))
	e.Detail = true
	w := NewWeightSetting(g.NumLinks())
	var res Result
	e.EvaluateNodeFailure(w, 1, &res)
	// Pair (0,3) survives via the lower path; pairs touching node 1 are
	// simply removed, not counted as violations.
	if res.Violations != 0 || res.Disconnected != 0 {
		t.Errorf("violations=%d disconnected=%d, want 0,0", res.Violations, res.Disconnected)
	}
	if d := res.PairDelay[0*4+3]; math.Abs(d-20) > 1e-9 {
		t.Errorf("surviving pair delay = %g, want 20", d)
	}
	if res.PairDelay[0*4+1] != 0 {
		t.Errorf("removed pair should have zero recorded delay")
	}
}

func TestUtilizationMetrics(t *testing.T) {
	g := twoPath(100)
	e := defaultEval(g, traffic.NewMatrix(4), singleDemand(4, 0, 3, 50))
	w := NewWeightSetting(g.NumLinks())
	w.Throughput[2] = 10 // all 50 Mbps on upper path: 2 links at 0.5
	var res Result
	e.EvaluateNormal(w, &res)
	if math.Abs(res.MaxUtil-0.5) > 1e-9 {
		t.Errorf("MaxUtil = %g, want 0.5", res.MaxUtil)
	}
	wantAvg := (0.5 + 0.5) / 8
	if math.Abs(res.AvgUtil-wantAvg) > 1e-9 {
		t.Errorf("AvgUtil = %g, want %g", res.AvgUtil, wantAvg)
	}
}

func TestPairMaxUtil(t *testing.T) {
	g := twoPath(100)
	demD := singleDemand(4, 0, 3, 10)
	demT := singleDemand(4, 1, 3, 60)
	e := defaultEval(g, demD, demT)
	e.Detail = true
	w := NewWeightSetting(g.NumLinks())
	w.Delay[2] = 10 // delay pair rides 0->1->3; link 1->3 also carries 60T
	var res Result
	e.EvaluateNormal(w, &res)
	// Link 0->1: 10/100. Link 1->3: 70/100.
	if got := res.PairMaxUtil[0*4+3]; math.Abs(got-0.7) > 1e-9 {
		t.Errorf("PairMaxUtil = %g, want 0.7", got)
	}
}

func TestMeanPathMetric(t *testing.T) {
	g := twoPath(500)
	e := NewEvaluator(g, singleDemand(4, 0, 3, 10), traffic.NewMatrix(4), cost.DefaultParams(), MeanPath)
	e.Detail = true
	w := NewWeightSetting(g.NumLinks())
	var res Result
	e.EvaluateNormal(w, &res)
	// Two ECMP paths of 10 and 20 ms: mean 15.
	if d := res.PairDelay[0*4+3]; math.Abs(d-15) > 1e-9 {
		t.Errorf("mean pair delay = %g, want 15", d)
	}
}

func TestScaleToAvgUtil(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := twoPath(500)
	demD, demT := traffic.Gravity(4, 1000, 0.3, rng)
	if _, err := ScaleToAvgUtil(g, demD, demT, 0.43); err != nil {
		t.Fatal(err)
	}
	e := defaultEval(g, demD, demT)
	var res Result
	e.EvaluateNormal(NewWeightSetting(g.NumLinks()), &res)
	if math.Abs(res.AvgUtil-0.43) > 1e-9 {
		t.Errorf("AvgUtil after scaling = %g, want 0.43", res.AvgUtil)
	}
}

func TestScaleToMaxUtil(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := twoPath(500)
	demD, demT := traffic.Gravity(4, 1000, 0.3, rng)
	if _, err := ScaleToMaxUtil(g, demD, demT, 0.9); err != nil {
		t.Fatal(err)
	}
	e := defaultEval(g, demD, demT)
	var res Result
	e.EvaluateNormal(NewWeightSetting(g.NumLinks()), &res)
	if math.Abs(res.MaxUtil-0.9) > 1e-9 {
		t.Errorf("MaxUtil after scaling = %g, want 0.9", res.MaxUtil)
	}
}

func TestScaleRejectsBadInput(t *testing.T) {
	g := twoPath(500)
	if _, err := ScaleToAvgUtil(g, traffic.NewMatrix(4), traffic.NewMatrix(4), 0.5); err == nil {
		t.Error("scaling zero traffic should fail")
	}
	demD, demT := traffic.Gravity(4, 100, 0.3, rand.New(rand.NewSource(1)))
	if _, err := ScaleToAvgUtil(g, demD, demT, -1); err == nil {
		t.Error("negative target should fail")
	}
}

func TestEvaluatorRejectsSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on size mismatch")
		}
	}()
	g := twoPath(500)
	NewEvaluator(g, traffic.NewMatrix(3), traffic.NewMatrix(4), cost.DefaultParams(), WorstPath)
}

func TestEvaluateConcurrentSafety(t *testing.T) {
	// Hammer the evaluator from many goroutines; the race detector (used
	// in CI runs with -race) validates pool isolation.
	rng := rand.New(rand.NewSource(9))
	g := twoPath(300)
	demD, demT := traffic.Gravity(4, 500, 0.3, rng)
	e := defaultEval(g, demD, demT)
	w := RandomWeightSetting(g.NumLinks(), 20, rng)
	var want Result
	e.EvaluateNormal(w, &want)
	done := make(chan Result, 32)
	for i := 0; i < 32; i++ {
		go func() {
			var r Result
			e.EvaluateNormal(w, &r)
			done <- r
		}()
	}
	for i := 0; i < 32; i++ {
		r := <-done
		if r.Cost != want.Cost {
			t.Fatalf("concurrent evaluation diverged: %+v vs %+v", r.Cost, want.Cost)
		}
	}
}

func TestDisconnectedPairDelayIsInf(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 500, 5)
	b.AddEdge(1, 2, 500, 5)
	g := b.MustBuild()
	e := defaultEval(g, singleDemand(3, 0, 2, 1), traffic.NewMatrix(3))
	e.Detail = true
	w := NewWeightSetting(g.NumLinks())
	var res Result
	e.EvaluateLinkFailure(w, 2, false, &res) // cut 1->2
	if res.PairDelay[0*3+2] < spf.InfDelay {
		t.Errorf("disconnected pair delay = %g, want InfDelay", res.PairDelay[0*3+2])
	}
}

func TestFailBothTakesDownReverse(t *testing.T) {
	// Chain 0-1-2 with demand both ways: failing 0->1 directed leaves
	// 2->0 traffic alive; failing both directions cuts it too.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 500, 5) // links 0,1
	b.AddEdge(1, 2, 500, 5) // links 2,3
	g := b.MustBuild()
	demD := traffic.NewMatrix(3)
	demD.Set(0, 2, 1)
	demD.Set(2, 0, 1)
	e := NewEvaluator(g, demD, traffic.NewMatrix(3), cost.DefaultParams(), WorstPath)
	w := NewWeightSetting(g.NumLinks())

	var oneDir, bothDir Result
	e.EvaluateLinkFailure(w, 0, false, &oneDir)
	e.EvaluateLinkFailure(w, 0, true, &bothDir)
	if oneDir.Disconnected != 1 {
		t.Errorf("directed failure disconnected = %d, want 1", oneDir.Disconnected)
	}
	if bothDir.Disconnected != 2 {
		t.Errorf("both-direction failure disconnected = %d, want 2", bothDir.Disconnected)
	}
}

func TestPhiNormConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := twoPath(400)
	demD, demT := traffic.Gravity(4, 300, 0.3, rng)
	e := defaultEval(g, demD, demT)
	w := RandomWeightSetting(g.NumLinks(), 20, rng)
	var res Result
	e.EvaluateNormal(w, &res)
	if math.Abs(res.PhiNorm-res.Cost.Phi/e.PhiUncap()) > 1e-12 {
		t.Errorf("PhiNorm %g != Phi/PhiUncap %g", res.PhiNorm, res.Cost.Phi/e.PhiUncap())
	}
	if e.PhiUncap() <= 0 {
		t.Errorf("PhiUncap = %g, want positive", e.PhiUncap())
	}
}

func TestUtilizationExcludesDeadLinks(t *testing.T) {
	g := twoPath(100)
	demT := singleDemand(4, 0, 3, 90)
	e := defaultEval(g, traffic.NewMatrix(4), demT)
	w := NewWeightSetting(g.NumLinks())
	w.Throughput[2] = 10 // everything on the upper path
	var normal, failed Result
	e.EvaluateNormal(w, &normal)
	// Fail the loaded upper-path link: traffic moves to the lower path;
	// the dead link must not contribute zero-utilization samples...
	e.EvaluateLinkFailure(w, 0, false, &failed)
	if failed.MaxUtil != 0.9 {
		t.Errorf("post-failure MaxUtil = %g, want 0.9 on detour", failed.MaxUtil)
	}
	// 8 links alive normally, 7 after the failure: the average must be
	// taken over alive links only.
	wantNormal := (0.9 + 0.9) / 8
	wantFailed := (0.9 + 0.9) / 7
	if math.Abs(normal.AvgUtil-wantNormal) > 1e-12 {
		t.Errorf("normal AvgUtil = %g, want %g", normal.AvgUtil, wantNormal)
	}
	if math.Abs(failed.AvgUtil-wantFailed) > 1e-12 {
		t.Errorf("failed AvgUtil = %g, want %g", failed.AvgUtil, wantFailed)
	}
}

func TestQuickLoadsLinearInDemand(t *testing.T) {
	// Scaling both matrices by k scales utilization by k (below the
	// delay-model knees everything is linear).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := twoPath(1e6) // huge capacity: stay linear
		demD, demT := traffic.Gravity(4, 100, 0.3, rng)
		e1 := defaultEval(g, demD, demT)
		w := RandomWeightSetting(g.NumLinks(), 20, rand.New(rand.NewSource(seed)))
		var r1 Result
		e1.EvaluateNormal(w, &r1)

		k := 1 + rng.Float64()*5
		e2 := defaultEval(g, demD.Clone().Scale(k), demT.Clone().Scale(k))
		var r2 Result
		e2.EvaluateNormal(w, &r2)
		return math.Abs(r2.MaxUtil-k*r1.MaxUtil) < 1e-9*math.Max(1, k*r1.MaxUtil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDetailBuffersReusedAcrossCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := twoPath(200)
	demD, demT := traffic.Gravity(4, 100, 0.3, rng)
	e := defaultEval(g, demD, demT)
	e.Detail = true
	w := NewWeightSetting(g.NumLinks())
	var res Result
	e.EvaluateNormal(w, &res)
	first := &res.PairDelay[0]
	e.EvaluateNormal(w, &res)
	if &res.PairDelay[0] != first {
		t.Error("detail buffers should be reused when capacity allows")
	}
}
