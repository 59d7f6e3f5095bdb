package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// testNet builds a random topology with gravity traffic, the standard
// fixture everything in this file runs against.
func testNet(t testing.TB, nodes, links int) (*graph.Graph, *routing.Evaluator, *routing.WeightSetting) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	g, err := topogen.Generate(topogen.Spec{Kind: topogen.RandKind, Nodes: nodes, DirectedLinks: links}, rng)
	if err != nil {
		t.Fatal(err)
	}
	demD, demT := traffic.Gravity(nodes, 1, 0.3, rng)
	if _, err := routing.ScaleToAvgUtil(g, demD, demT, 0.43); err != nil {
		t.Fatal(err)
	}
	ev := routing.NewEvaluator(g, demD, demT, cost.DefaultParams(), routing.WorstPath)
	return g, ev, routing.RandomWeightSetting(links, 20, rng)
}

// TestSingleLinkRunnerMatchesSerialEvaluator: the runner's link-failure
// sweeps, directed and fiber-cut, match serial EvaluateLinkFailure calls
// index for index.
func TestSingleLinkRunnerMatchesSerialEvaluator(t *testing.T) {
	g, ev, w := testNet(t, 12, 60)
	for _, tc := range []struct {
		set  Set
		both bool
	}{{SingleLinkFailures(g), false}, {PhysicalLinkFailures(g), true}} {
		t.Run(tc.set.Name, func(t *testing.T) {
			rep := Runner{}.Run(ev, w, tc.set)
			if len(rep.Results) != g.NumLinks() {
				t.Fatalf("%d results for %d links", len(rep.Results), g.NumLinks())
			}
			var want routing.Result
			for li := 0; li < g.NumLinks(); li++ {
				ev.EvaluateLinkFailure(w, li, tc.both, &want)
				if !reflect.DeepEqual(want, rep.Results[li].Result) {
					t.Fatalf("link %d: runner result diverges from EvaluateLinkFailure\nrunner: %+v\nserial: %+v",
						li, rep.Results[li].Result, want)
				}
			}
		})
	}
}

func TestNodeFailureRunnerMatchesSerialEvaluator(t *testing.T) {
	g, ev, w := testNet(t, 12, 60)
	rep := Runner{}.Run(ev, w, NodeFailures(g))
	var want routing.Result
	for v := 0; v < g.NumNodes(); v++ {
		ev.EvaluateNodeFailure(w, v, &want)
		if !reflect.DeepEqual(want, rep.Results[v].Result) {
			t.Fatalf("node %d: runner diverges from EvaluateNodeFailure", v)
		}
	}
}

// TestRunnerDeterministicAcrossWorkerCounts: the runner's pool has
// GOMAXPROCS workers, and its report is the same at every size.
func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, ev, w := testNet(t, 12, 60)
	set := Merge("mixed",
		SingleLinkFailures(g),
		DualLinkFailures(g, 20, 3),
		NodeFailures(g),
		SRLGFailures(g, 3),
	)
	serial := Runner{}.Run(ev, w, set)
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		par := Runner{}.Run(ev, w, set)
		if !reflect.DeepEqual(serial.Results, par.Results) {
			t.Fatalf("results differ between GOMAXPROCS 1 and %d", procs)
		}
		if !reflect.DeepEqual(serial.Summary(), par.Summary()) {
			t.Fatalf("summary differs between GOMAXPROCS 1 and %d", procs)
		}
	}
}

func TestDualLinkFailures(t *testing.T) {
	g, _, _ := testNet(t, 12, 60)
	a := DualLinkFailures(g, 25, 42)
	b := DualLinkFailures(g, 25, 42)
	if a.Size() != 25 {
		t.Fatalf("size %d, want 25", a.Size())
	}
	for i, sc := range a.Scenarios {
		lf := sc.(LinkFailure)
		if len(lf.Links) != 2 || lf.Links[0] == lf.Links[1] {
			t.Fatalf("scenario %d links %v not a distinct pair", i, lf.Links)
		}
		if sc.Name() != b.Scenarios[i].Name() {
			t.Fatalf("dual-link sampling not deterministic at %d", i)
		}
	}
	if c := DualLinkFailures(g, 25, 43); c.Scenarios[0].Name() == a.Scenarios[0].Name() &&
		c.Scenarios[1].Name() == a.Scenarios[1].Name() &&
		c.Scenarios[2].Name() == a.Scenarios[2].Name() {
		t.Error("different seeds produced identical leading draws")
	}
}

func TestSRLGFailuresGridGroups(t *testing.T) {
	g, _, _ := testNet(t, 20, 100)
	set := SRLGFailures(g, 3)
	if set.Size() == 0 {
		t.Fatal("no SRLG groups on a 20-node geometric topology")
	}
	seen := map[int]bool{}
	for _, sc := range set.Scenarios {
		lf := sc.(LinkFailure)
		if len(lf.Links) < 2 {
			t.Fatalf("group %q has fewer than 2 links", sc.Name())
		}
		if !lf.Both {
			t.Fatalf("group %q must fail both directions", sc.Name())
		}
		for _, li := range lf.Links {
			if seen[li] {
				t.Fatalf("link %d appears in two SRLG groups", li)
			}
			seen[li] = true
			if r := g.Link(li).Reverse; r >= 0 && seen[r] {
				t.Fatalf("both directions of an edge listed separately")
			}
		}
	}
}

func TestSRLGFailuresSiteFallback(t *testing.T) {
	// Hand-built graph without coordinates: star around node 0.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 100, 1)
	b.AddEdge(0, 2, 100, 1)
	b.AddEdge(0, 3, 100, 1)
	g := b.MustBuild()
	set := SRLGFailures(g, 0)
	if set.Size() != 1 {
		t.Fatalf("site fallback produced %d groups, want 1 (hub only)", set.Size())
	}
	lf := set.Scenarios[0].(LinkFailure)
	if len(lf.Links) != 3 || !strings.HasPrefix(set.Scenarios[0].Name(), "srlg:site:") {
		t.Fatalf("hub group wrong: %+v", lf)
	}
}

func TestHotspotSurgesDeterministicAndDistinct(t *testing.T) {
	_, ev, _ := testNet(t, 12, 60)
	h := traffic.DefaultHotspot(true)
	a := HotspotSurges(ev.DemandDelay(), ev.DemandThroughput(), h, 5, 9)
	b := HotspotSurges(ev.DemandDelay(), ev.DemandThroughput(), h, 5, 9)
	if a.Size() != 5 {
		t.Fatalf("size %d", a.Size())
	}
	for i := range a.Scenarios {
		sa := a.Scenarios[i].(TrafficShift)
		sb := b.Scenarios[i].(TrafficShift)
		if !reflect.DeepEqual(sa.DemD, sb.DemD) || !reflect.DeepEqual(sa.DemT, sb.DemT) {
			t.Fatalf("instance %d not deterministic in seed", i)
		}
		if sa.DemD.Total() <= ev.DemandDelay().Total() {
			t.Errorf("instance %d did not increase delay-class volume", i)
		}
	}
}

func TestUniformSurgeScalesEvaluation(t *testing.T) {
	_, ev, w := testNet(t, 12, 60)
	rep := Runner{}.Run(ev, w, UniformSurges(ev.DemandDelay(), ev.DemandThroughput(), 1, 2))
	var base routing.Result
	ev.EvaluateNormal(w, &base)
	// Factor 1 must reproduce the unperturbed evaluation exactly.
	if !reflect.DeepEqual(base, rep.Results[0].Result) {
		t.Fatal("factor-1 surge diverges from EvaluateNormal")
	}
	// Factor 2 doubles every load, hence exactly doubles utilization.
	if got, want := rep.Results[1].MaxUtil, 2*base.MaxUtil; math.Abs(got-want) > 1e-9 {
		t.Errorf("factor-2 MaxUtil = %g, want %g", got, want)
	}
}

func TestCompoundAppliesFailureAndTraffic(t *testing.T) {
	g, ev, w := testNet(t, 12, 60)
	surged := ev.DemandDelay().Clone().Scale(2)
	set := WithTraffic(SingleLinkFailures(g), surged, nil, "+x2")
	rep := Runner{}.Run(ev, w, set)
	if rep.Results[0].Name != set.Scenarios[0].Name() || !strings.HasSuffix(rep.Results[0].Name, "+x2") {
		t.Fatalf("compound name %q", rep.Results[0].Name)
	}
	// Same state computed directly: link 0 down + doubled delay demands.
	mask := graph.NewMask(g)
	mask.FailLink(0)
	var want routing.Result
	ev.EvaluateDemands(w, mask, -1, surged, nil, &want)
	if !reflect.DeepEqual(want, rep.Results[0].Result) {
		t.Fatal("compound scenario diverges from direct EvaluateDemands")
	}
}

func TestSummaryAggregates(t *testing.T) {
	g, ev, w := testNet(t, 12, 60)
	rep := Runner{}.Run(ev, w, SingleLinkFailures(g))
	s := rep.Summary()
	if s.Scenarios != g.NumLinks() {
		t.Fatalf("scenario count %d", s.Scenarios)
	}
	var total, worst int
	for _, r := range rep.Results {
		total += r.Violations
		if r.Violations > worst {
			worst = r.Violations
		}
	}
	if s.TotalViolations != total || math.Abs(s.AvgViolations-float64(total)/float64(s.Scenarios)) > 1e-12 {
		t.Errorf("violation totals wrong: %+v", s)
	}
	if s.WorstViolations != worst {
		t.Errorf("worst %d, want %d", s.WorstViolations, worst)
	}
	if s.WorstScenario == "" {
		t.Error("worst scenario unnamed")
	}
	if s.Top10Violations < s.AvgViolations {
		t.Error("top-10% mean below overall mean")
	}
	if s.ViolationsP95 < s.ViolationsP50 || s.MaxUtilP95 < s.MaxUtilP50 {
		t.Error("percentiles not monotone")
	}
	if s.WorstMaxUtil < s.MaxUtilP95 {
		t.Error("worst util below p95")
	}
	// The β tail: mean of the worst len/10 violation counts; the total
	// cost compounds Λ and Φ in scenario order.
	viol := make([]int, len(rep.Results))
	var totalCost cost.Cost
	for i, r := range rep.Results {
		viol[i] = r.Violations
		totalCost = totalCost.Add(r.Cost)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(viol)))
	k := len(viol) / 10
	top := 0
	for _, v := range viol[:k] {
		top += v
	}
	if want := float64(top) / float64(k); s.Top10Violations != want {
		t.Errorf("Top10Violations = %g, want %g", s.Top10Violations, want)
	}
	if s.TotalCost != totalCost {
		t.Errorf("total cost %+v, want %+v", s.TotalCost, totalCost)
	}
}

// TestSummary checks the aggregates on hand-built results: the top-decile
// mean, ties, empty and one-scenario sets, and the compounded cost.
func TestSummary(t *testing.T) {
	named := func(prefix string, rs []routing.Result) []Result {
		out := make([]Result, len(rs))
		for i := range rs {
			out[i] = Result{Name: fmt.Sprintf("%s%d", prefix, i), Result: rs[i]}
		}
		return out
	}
	decile := make([]routing.Result, 20)
	for i := range decile {
		decile[i].Violations = i // 0..19
		decile[i].Cost = cost.Cost{Lambda: float64(i), Phi: 1}
	}
	tied := make([]routing.Result, 10)
	for i := range tied {
		tied[i].Violations = 5
	}
	cases := []struct {
		name    string
		results []Result
		want    Summary
	}{
		{"top-decile", named("s", decile), Summary{
			Scenarios: 20, TotalViolations: 190, AvgViolations: 9.5,
			// Worst 10% of 20 scenarios = top 2: (19+18)/2.
			Top10Violations: 18.5, WorstViolations: 19, WorstScenario: "s19",
			ViolationsP50: 9, ViolationsP95: 18,
			TotalCost: cost.Cost{Lambda: 190, Phi: 20},
		}},
		{"ties", named("t", tied), Summary{
			Scenarios: 10, TotalViolations: 50, AvgViolations: 5,
			// Ties go to the earliest scenario.
			Top10Violations: 5, WorstViolations: 5, WorstScenario: "t0",
			ViolationsP50: 5, ViolationsP95: 5,
		}},
		{"empty", nil, Summary{}},
		{"one-scenario", named("o", []routing.Result{{Violations: 7, Disconnected: 2, MaxUtil: 1.5}}), Summary{
			Scenarios: 1, TotalViolations: 7, AvgViolations: 7,
			Top10Violations: 7, WorstViolations: 7, WorstScenario: "o0",
			ViolationsP50: 7, ViolationsP95: 7, Overloaded: 1, Disconnected: 1,
			MaxUtilP50: 1.5, MaxUtilP95: 1.5, WorstMaxUtil: 1.5,
		}},
		{"total-cost", named("c", []routing.Result{
			{Cost: cost.Cost{Lambda: 1, Phi: 2}},
			{Cost: cost.Cost{Lambda: 10, Phi: 20}},
		}), Summary{
			Scenarios: 2, WorstScenario: "c0",
			TotalCost: cost.Cost{Lambda: 11, Phi: 22},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := &Report{Results: tc.results}
			if got := rep.Summary(); got != tc.want {
				t.Errorf("summary\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

func TestEmptySetAndMerge(t *testing.T) {
	_, ev, w := testNet(t, 8, 40)
	rep := Runner{}.Run(ev, w, Set{Name: "empty"})
	if rep.Summary().Scenarios != 0 || len(rep.Results) != 0 {
		t.Fatalf("empty set produced %+v", rep.Summary())
	}
	m := Merge("m", Set{Scenarios: []Scenario{NodeFailure{Node: 0}}}, Set{Scenarios: []Scenario{NodeFailure{Node: 1}}})
	if m.Size() != 2 || m.Name != "m" {
		t.Fatalf("merge wrong: %+v", m)
	}
}
