package repro

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestNewNetworkErrorMessages(t *testing.T) {
	if _, err := NewNetwork(NetworkSpec{Topology: "wat", Nodes: 10, Links: 40}); err == nil || !strings.Contains(err.Error(), "unknown topology") {
		t.Errorf("unknown topology error = %v", err)
	}
	if _, err := NewNetwork(NetworkSpec{Topology: "rand", Nodes: 10, Links: 40, AvgUtil: 0.4, MaxUtil: 0.8}); err == nil || !strings.Contains(err.Error(), "at most one") {
		t.Errorf("AvgUtil+MaxUtil error = %v", err)
	}
	if _, err := NewNetwork(NetworkSpec{Topology: "rand", Nodes: 10, Links: 41}); err == nil {
		t.Error("odd Links accepted")
	}
}

func TestScenarioBuilderSizes(t *testing.T) {
	net := smallNet(t)
	if got := net.SingleLinkFailureScenarios().Size(); got != net.Links() {
		t.Errorf("single-link set has %d scenarios, want %d", got, net.Links())
	}
	if got := net.NodeFailureScenarios().Size(); got != net.Nodes() {
		t.Errorf("node set has %d scenarios, want %d", got, net.Nodes())
	}
	dual := net.DualLinkFailureScenarios(40, 5)
	if dual.Size() != 40 {
		t.Errorf("dual set has %d scenarios, want 40", dual.Size())
	}
	if names := dual.ScenarioNames(); len(names) != 40 || !strings.HasPrefix(names[0], "dual:") {
		t.Errorf("dual names wrong: %v", names[:1])
	}
	if got := net.HotspotSurgeScenarios(true, 7, 5).Size(); got != 7 {
		t.Errorf("hotspot set has %d scenarios, want 7", got)
	}
	if got := net.TrafficScaleScenarios(1.5, 2).Size(); got != 2 {
		t.Errorf("scale set has %d scenarios, want 2", got)
	}
	if srlg := net.SRLGScenarios(); srlg.Size() == 0 {
		t.Error("SRLG set empty on a geometric topology")
	}
	merged, err := net.MergeScenarios("all", net.SingleLinkFailureScenarios(), net.NodeFailureScenarios())
	if err != nil {
		t.Fatal(err)
	}
	if merged.Size() != net.Links()+net.Nodes() || merged.Name() != "all" {
		t.Errorf("merged set wrong: %d %q", merged.Size(), merged.Name())
	}
}

func TestRunScenariosErrorPaths(t *testing.T) {
	net := smallNet(t)
	other, err := NewNetwork(NetworkSpec{Topology: "rand", Nodes: 8, Links: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := net.UniformRouting()

	if _, err := net.RunScenarios(nil, r); err == nil {
		t.Error("nil set accepted")
	}
	if _, err := net.RunScenarios(net.SingleLinkFailureScenarios(), nil); err == nil {
		t.Error("nil routing accepted")
	}
	if _, err := net.RunScenarios(other.SingleLinkFailureScenarios(), r); err == nil || !strings.Contains(err.Error(), "different network") {
		t.Errorf("foreign set error = %v", err)
	}
	if _, err := net.RunScenarios(net.SingleLinkFailureScenarios(), other.UniformRouting()); err == nil {
		t.Error("size-mismatched routing accepted")
	}
	if _, err := net.MergeScenarios("x", net.NodeFailureScenarios(), other.NodeFailureScenarios()); err == nil {
		t.Error("merge across networks accepted")
	}
	if _, err := net.MergeScenarios("x", nil); err == nil {
		t.Error("merge of nil set accepted")
	}
	if _, err := net.MergeScenarios("x"); err == nil || !strings.Contains(err.Error(), "no scenario sets") {
		t.Errorf("merge of zero sets error = %v", err)
	}
}

// TestScenarioBuildersDeterministicInSeed pins the sampled generators'
// determinism contract: the same seed reproduces the same scenarios
// (names and evaluations), a different seed produces a different draw.
func TestScenarioBuildersDeterministicInSeed(t *testing.T) {
	net := smallNet(t)
	r := net.RandomRouting(3)

	duaA := net.DualLinkFailureScenarios(25, 42)
	duaB := net.DualLinkFailureScenarios(25, 42)
	if !reflect.DeepEqual(duaA.ScenarioNames(), duaB.ScenarioNames()) {
		t.Error("DualLinkFailureScenarios not deterministic in seed")
	}
	if reflect.DeepEqual(duaA.ScenarioNames(), net.DualLinkFailureScenarios(25, 43).ScenarioNames()) {
		t.Error("DualLinkFailureScenarios ignores the seed")
	}

	// Hot-spot surges carry their randomness in the matrices, not the
	// names, so compare evaluations.
	hotA, err := net.RunScenarios(net.HotspotSurgeScenarios(true, 6, 42), r)
	if err != nil {
		t.Fatal(err)
	}
	hotB, err := net.RunScenarios(net.HotspotSurgeScenarios(true, 6, 42), r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hotA.PerScenario, hotB.PerScenario) {
		t.Error("HotspotSurgeScenarios not deterministic in seed")
	}
	hotC, err := net.RunScenarios(net.HotspotSurgeScenarios(true, 6, 43), r)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(hotA.PerScenario, hotC.PerScenario) {
		t.Error("HotspotSurgeScenarios ignores the seed")
	}
}

// TestRunScenariosMatchesSerialFailureLoop is the tentpole acceptance
// check: the parallel runner over the exhaustive single-link set must
// reproduce serial EvaluateLinkFailure calls exactly, scenario by
// scenario, and EvaluateAllLinkFailures must return the same report.
func TestRunScenariosMatchesSerialFailureLoop(t *testing.T) {
	net := smallNet(t)
	r := net.RandomRouting(9)

	rep, err := net.RunScenarios(net.SingleLinkFailureScenarios(), r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios != net.Links() || len(rep.PerScenario) != net.Links() {
		t.Fatalf("report covers %d scenarios, want %d", rep.Scenarios, net.Links())
	}
	var total, worst int
	for l := 0; l < net.Links(); l++ {
		serial := r.EvaluateLinkFailure(l)
		if !reflect.DeepEqual(serial, rep.PerScenario[l].Evaluation) {
			t.Fatalf("scenario %d diverges from serial EvaluateLinkFailure:\nrunner: %+v\nserial: %+v",
				l, rep.PerScenario[l].Evaluation, serial)
		}
		total += serial.SLAViolations
		if serial.SLAViolations > worst {
			worst = serial.SLAViolations
		}
	}
	if rep.TotalViolations != total || rep.WorstViolations != worst {
		t.Errorf("aggregates wrong: total %d want %d, worst %d want %d",
			rep.TotalViolations, total, rep.WorstViolations, worst)
	}

	if fr := r.EvaluateAllLinkFailures(); !reflect.DeepEqual(fr, rep) {
		t.Errorf("EvaluateAllLinkFailures diverges from RunScenarios:\n%+v\nvs\n%+v", fr, rep)
	}
}

func TestRunScenariosNodeFailuresMatchSerial(t *testing.T) {
	net := smallNet(t)
	r := net.RandomRouting(9)
	rep, err := net.RunScenarios(net.NodeFailureScenarios(), r)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < net.Nodes(); v++ {
		if serial := r.EvaluateNodeFailure(v); !reflect.DeepEqual(serial, rep.PerScenario[v].Evaluation) {
			t.Fatalf("node scenario %d diverges from EvaluateNodeFailure", v)
		}
	}
	if fr := r.EvaluateAllNodeFailures(); !reflect.DeepEqual(fr, rep) {
		t.Errorf("EvaluateAllNodeFailures diverges from RunScenarios:\n%+v\nvs\n%+v", fr, rep)
	}
}

func TestRunScenariosDeterministic(t *testing.T) {
	net := smallNet(t)
	r := net.RandomRouting(2)
	set, err := net.MergeScenarios("mix",
		net.DualLinkFailureScenarios(30, 11),
		net.HotspotSurgeScenarios(false, 5, 11),
		net.TrafficScaleScenarios(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := net.RunScenarios(set, r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.RunScenarios(set, r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("repeated RunScenarios not deterministic")
	}
	for _, procs := range []int{1, 2, 4, 8} {
		prev := runtime.GOMAXPROCS(procs)
		c, err := net.RunScenarios(set, r)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, c) {
			t.Errorf("RunScenarios at GOMAXPROCS %d diverges from the default", procs)
		}
	}
}

func TestSurgeScenariosStressTheNetwork(t *testing.T) {
	net := smallNet(t)
	r := net.UniformRouting()
	base := r.Evaluate()
	rep, err := net.RunScenarios(net.TrafficScaleScenarios(3), r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorstMaxUtil <= base.MaxUtilization {
		t.Errorf("3x surge max util %g not above base %g", rep.WorstMaxUtil, base.MaxUtilization)
	}
}
