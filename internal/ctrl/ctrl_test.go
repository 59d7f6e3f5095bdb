package ctrl

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/opt"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

func ctrlTestEvaluator(t testing.TB, nodes, links int, seed int64) *routing.Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := topogen.Generate(topogen.Spec{Kind: topogen.RandKind, Nodes: nodes, DirectedLinks: links}, rng)
	if err != nil {
		t.Fatal(err)
	}
	demD, demT := traffic.Gravity(g.NumNodes(), 1, 0.3, rng)
	if _, err := routing.ScaleToAvgUtil(g, demD, demT, 0.5); err != nil {
		t.Fatal(err)
	}
	return routing.NewEvaluator(g, demD, demT, cost.DefaultParams(), routing.WorstPath)
}

func tinyOptConfig(seed int64) opt.Config {
	c := opt.QuickConfig()
	c.Tau = 2
	c.MaxIter1, c.MaxIter2 = 6, 4
	c.P1, c.P2 = 1, 1
	c.Div1Interval, c.Div2Interval = 2, 2
	c.MaxTopUpBatches = 1
	c.Seed = seed
	return c
}

// mixedSet builds the failure+surge scenario space the control-plane
// tests run on: single- and dual-link failures, hot-spot surges, and a
// failure-during-surge compound. (No node failures: their
// traffic-removal semantics are not representable as link events, so
// the oracle comparison would not be apples-to-apples.)
func mixedSet(ev *routing.Evaluator) scenario.Set {
	g := ev.Graph()
	surgeD, surgeT := ev.DemandDelay().Clone().Scale(1.6), ev.DemandThroughput().Clone().Scale(1.6)
	return scenario.Merge("mixed",
		scenario.Set{Scenarios: []scenario.Scenario{
			scenario.LinkFailure{Links: []int{0}},
			scenario.LinkFailure{Links: []int{5}, Both: true},
		}},
		scenario.DualLinkFailures(g, 3, 7),
		scenario.HotspotSurges(ev.DemandDelay(), ev.DemandThroughput(), traffic.DefaultHotspot(true), 2, 11),
		scenario.WithTraffic(scenario.DualLinkFailures(g, 2, 13), surgeD, surgeT, "+surge"),
	)
}

func buildTestLibrary(t testing.TB, ev *routing.Evaluator, set scenario.Set, k int) *Library {
	t.Helper()
	lib, err := BuildLibrary(ev, set, BuildConfig{K: k, Opt: tinyOptConfig(3)})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestKMeansDeterministicAndCovering(t *testing.T) {
	points := [][]float64{{0, 0}, {0.1, 0}, {5, 5}, {5.1, 4.9}, {10, 0}, {10, 0.2}}
	a := kmeans(points, 3, 1)
	b := kmeans(points, 3, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("kmeans not deterministic")
	}
	if len(a) != len(points) {
		t.Fatalf("assignment covers %d points", len(a))
	}
	// The three obvious pairs must co-cluster.
	for i := 0; i < len(points); i += 2 {
		if a[i] != a[i+1] {
			t.Errorf("points %d and %d split across clusters %d/%d", i, i+1, a[i], a[i+1])
		}
	}
	if a[0] == a[2] || a[2] == a[4] || a[0] == a[4] {
		t.Errorf("distinct groups merged: %v", a)
	}
}

func TestBuildLibraryShape(t *testing.T) {
	ev := ctrlTestEvaluator(t, 8, 40, 1)
	set := mixedSet(ev)
	lib := buildTestLibrary(t, ev, set, 3)

	if lib.Size() < 1 || lib.Size() > 3 {
		t.Fatalf("library has %d entries, want 1..3", lib.Size())
	}
	if len(lib.Scenarios) != set.Size() {
		t.Fatalf("library lists %d scenarios, set has %d", len(lib.Scenarios), set.Size())
	}
	seen := make(map[int]bool)
	for _, e := range lib.Entries {
		if e.W.Len() != ev.Graph().NumLinks() {
			t.Fatalf("entry %s covers %d links", e.Name, e.W.Len())
		}
		if len(e.Fingerprint) != set.Size() || len(e.Violations) != set.Size() {
			t.Fatalf("entry %s fingerprint covers %d/%d scenarios, want %d",
				e.Name, len(e.Fingerprint), len(e.Violations), set.Size())
		}
		for _, i := range e.Cluster {
			if seen[i] {
				t.Fatalf("scenario %d assigned to two clusters", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != set.Size() {
		t.Fatalf("clusters cover %d of %d scenarios", len(seen), set.Size())
	}
	// Determinism: same inputs, same library.
	again := buildTestLibrary(t, ctrlTestEvaluator(t, 8, 40, 1), mixedSet(ev), 3)
	if len(again.Entries) != len(lib.Entries) {
		t.Fatalf("rebuild produced %d entries, want %d", len(again.Entries), len(lib.Entries))
	}
	for i := range lib.Entries {
		if !lib.Entries[i].W.Equal(again.Entries[i].W) {
			t.Errorf("rebuild entry %d weights differ", i)
		}
	}
}

// TestAdviseMatchesOracle is the controller-equivalence acceptance
// test: replaying every scenario of a mixed failure+surge set as
// telemetry events, the selector must (a) score every library
// configuration bit-identically to the from-scratch Evaluator oracle
// under the same conditions and (b) pick exactly the configuration the
// oracle ranks best.
func TestAdviseMatchesOracle(t *testing.T) {
	ev := ctrlTestEvaluator(t, 8, 40, 2)
	set := mixedSet(ev)
	lib := buildTestLibrary(t, ev, set, 3)
	sel, err := NewSelector(ev, lib)
	if err != nil {
		t.Fatal(err)
	}

	var want routing.Result
	for _, ep := range scenario.Episodes(ev.Graph(), set) {
		for _, e := range ep.Onset {
			if err := observe1(sel, e); err != nil {
				t.Fatal(err)
			}
		}
		mask, demD, demT := conditions(sel)
		st := sel.State()
		oracleBest, oracleIdx := cost.Cost{}, -1
		for i, entry := range lib.Entries {
			ev.EvaluateDemands(entry.W, mask, -1, demD, demT, &want)
			got := st.Configs[i].Result
			if got.Cost != want.Cost || got.Violations != want.Violations ||
				got.Disconnected != want.Disconnected || got.MaxUtil != want.MaxUtil ||
				got.AvgUtil != want.AvgUtil || got.PhiNorm != want.PhiNorm {
				t.Fatalf("%s: config %d scored %+v, oracle %+v", ep.Name, i, got, want)
			}
			if oracleIdx < 0 || want.Cost.Less(oracleBest) {
				oracleIdx, oracleBest = i, want.Cost
			}
		}
		adv := sel.Advise()
		if adv.Config != oracleIdx {
			t.Fatalf("%s: Advise picked %d, oracle picked %d", ep.Name, adv.Config, oracleIdx)
		}
		if adv.Result.Cost != oracleBest {
			t.Fatalf("%s: Advise cost %+v, oracle %+v", ep.Name, adv.Result.Cost, oracleBest)
		}
		for _, e := range ep.Recovery {
			if err := observe1(sel, e); err != nil {
				t.Fatal(err)
			}
		}
	}

	// After every episode recovered, the selector must be back at the
	// base state exactly.
	st := sel.State()
	for i, entry := range lib.Entries {
		ev.EvaluateDemands(entry.W, nil, -1, nil, nil, &want)
		if got := st.Configs[i].Result; got.Cost != want.Cost || got.Violations != want.Violations {
			t.Fatalf("config %d did not return to base state: %+v vs %+v", i, got, want)
		}
	}
	if st.Events == 0 || len(st.DownLinks) != 0 {
		t.Fatalf("selector end state: %d events, %v down", st.Events, st.DownLinks)
	}
}

func TestSelectorObserveErrors(t *testing.T) {
	ev := ctrlTestEvaluator(t, 8, 40, 4)
	lib, err := FromWeightSettings(ev, nil, []*routing.WeightSetting{routing.NewWeightSetting(ev.Graph().NumLinks())})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelector(ev, lib)
	if err != nil {
		t.Fatal(err)
	}
	if err := observe1(sel, scenario.Event{Kind: scenario.EventLinkDown, Link: -1}); err == nil {
		t.Error("negative link accepted")
	}
	if err := observe1(sel, scenario.Event{Kind: scenario.EventLinkDown, Link: 9999}); err == nil {
		t.Error("out-of-range link accepted")
	}
	if err := observe1(sel, scenario.Event{Kind: scenario.EventDemand, DemD: traffic.NewMatrix(3)}); err == nil {
		t.Error("mismatched demand matrix accepted")
	}
	if err := observe1(sel, scenario.Event{Kind: scenario.EventDemandDelta,
		DeltaD: &traffic.Delta{Entries: []traffic.DeltaEntry{{S: 0, T: 0, New: 1}}}}); err == nil {
		t.Error("diagonal delta entry accepted")
	}
	if err := observe1(sel, scenario.Event{Kind: scenario.EventDemandDelta,
		DeltaT: &traffic.Delta{Entries: []traffic.DeltaEntry{{S: 0, T: 999, New: 1}}}}); err == nil {
		t.Error("out-of-range delta entry accepted")
	}
	// Duplicate events are idempotent.
	if err := observe1(sel, scenario.Event{Kind: scenario.EventLinkDown, Link: 2}); err != nil {
		t.Fatal(err)
	}
	before := sel.State().Configs[0].Result
	if err := observe1(sel, scenario.Event{Kind: scenario.EventLinkDown, Link: 2}); err != nil {
		t.Fatal(err)
	}
	if got := sel.State().Configs[0].Result; got.Cost != before.Cost {
		t.Error("duplicate link-down changed the result")
	}
}

// TestSelectorDemandDedup pins the no-op demand handling: demand
// events whose matrices (or delta entries) equal the state in effect
// must not fan out to the candidate sessions — mirroring the existing
// duplicate-link-event dedup — while genuinely new demands must.
func TestSelectorDemandDedup(t *testing.T) {
	ev := ctrlTestEvaluator(t, 8, 40, 14)
	rng := rand.New(rand.NewSource(15))
	ws := []*routing.WeightSetting{
		routing.RandomWeightSetting(ev.Graph().NumLinks(), 20, rng),
		routing.RandomWeightSetting(ev.Graph().NumLinks(), 20, rng),
	}
	lib, err := FromWeightSettings(ev, nil, ws)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelector(ev, lib)
	if err != nil {
		t.Fatal(err)
	}

	// Base-equal matrices and nil matrices are both "no change".
	for _, e := range []scenario.Event{
		{Kind: scenario.EventDemand},
		{Kind: scenario.EventDemand, DemD: ev.DemandDelay().Clone(), DemT: ev.DemandThroughput().Clone()},
		{Kind: scenario.EventDemandDelta},
		{Kind: scenario.EventDemandDelta, DeltaD: &traffic.Delta{Entries: []traffic.DeltaEntry{
			{S: 0, T: 1, New: ev.DemandDelay().At(0, 1)}}}},
	} {
		if err := observe1(sel, e); err != nil {
			t.Fatal(err)
		}
	}
	if sel.State().Events != 0 {
		t.Fatalf("no-op demand events counted: %d", sel.State().Events)
	}

	// A real surge counts, and repeating its dense rendering does not.
	surgeT := ev.DemandThroughput().Clone()
	surgeT.Set(0, 2, surgeT.At(0, 2)*3)
	if err := observe1(sel, scenario.Event{Kind: scenario.EventDemand, DemT: surgeT}); err != nil {
		t.Fatal(err)
	}
	if sel.State().Events != 1 {
		t.Fatalf("surge not counted: %d events", sel.State().Events)
	}
	if err := observe1(sel, scenario.Event{Kind: scenario.EventDemand, DemT: surgeT.Clone()}); err != nil {
		t.Fatal(err)
	}
	if sel.State().Events != 1 {
		t.Fatal("repeated surge matrices fanned out again")
	}
	// A delta restating the surged value is also a no-op; one moving it
	// back to base is not, and the scores return to the base state.
	if err := observe1(sel, scenario.Event{Kind: scenario.EventDemandDelta,
		DeltaT: &traffic.Delta{Entries: []traffic.DeltaEntry{{S: 0, T: 2, New: surgeT.At(0, 2)}}}}); err != nil {
		t.Fatal(err)
	}
	if sel.State().Events != 1 {
		t.Fatal("no-op delta fanned out")
	}
	if err := observe1(sel, scenario.Event{Kind: scenario.EventDemandDelta,
		DeltaT: &traffic.Delta{Entries: []traffic.DeltaEntry{{S: 0, T: 2, New: ev.DemandThroughput().At(0, 2)}}}}); err != nil {
		t.Fatal(err)
	}
	if sel.State().Events != 2 {
		t.Fatal("restoring delta not counted")
	}
	var want routing.Result
	st := sel.State()
	for i := range ws {
		ev.EvaluateDemands(ws[i], nil, -1, nil, nil, &want)
		got := st.Configs[i].Result
		if got.Cost != want.Cost || got.Violations != want.Violations {
			t.Fatalf("config %d not back at base after inverse delta: %+v vs %+v", i, got, want)
		}
	}
}

// TestSelectorDeltaMatchesDense feeds the same surge once as a sparse
// delta and once as dense matrices to two selectors; every cached score
// must agree bit for bit (the demand-delta path's equivalence contract
// at the control-plane level).
func TestSelectorDeltaMatchesDense(t *testing.T) {
	ev := ctrlTestEvaluator(t, 10, 50, 16)
	rng := rand.New(rand.NewSource(17))
	ws := make([]*routing.WeightSetting, 3)
	for i := range ws {
		ws[i] = routing.RandomWeightSetting(ev.Graph().NumLinks(), 20, rng)
	}
	lib, err := FromWeightSettings(ev, nil, ws)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSelector(ev, lib)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSelector(ev, lib)
	if err != nil {
		t.Fatal(err)
	}

	surgedD := ev.DemandDelay().Clone()
	surgedD.Set(1, 4, surgedD.At(1, 4)*5)
	surgedD.Set(7, 4, surgedD.At(7, 4)*2)
	dd := traffic.Diff(ev.DemandDelay(), surgedD)

	// Interleave with a link event so the delta lands on non-base state.
	for _, sel := range []*Selector{a, b} {
		if err := observe1(sel, scenario.Event{Kind: scenario.EventLinkDown, Link: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := observe1(a, scenario.Event{Kind: scenario.EventDemandDelta, DeltaD: dd}); err != nil {
		t.Fatal(err)
	}
	if err := observe1(b, scenario.Event{Kind: scenario.EventDemand, DemD: surgedD}); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.State(), b.State()
	for i := range ws {
		ra, rb := sa.Configs[i].Result, sb.Configs[i].Result
		if ra.Cost != rb.Cost || ra.PhiNorm != rb.PhiNorm || ra.Violations != rb.Violations ||
			ra.Disconnected != rb.Disconnected || ra.MaxUtil != rb.MaxUtil || ra.AvgUtil != rb.AvgUtil {
			t.Fatalf("config %d: delta score %+v != dense score %+v", i, ra, rb)
		}
	}
	if !a.Checkpoint().DemD.Equal(surgedD) {
		t.Fatal("selector's tracked demand state diverged from the dense rendering")
	}
	if a.Advise().Config != b.Advise().Config {
		t.Fatal("advice diverged between delta and dense paths")
	}
}

// TestPlanMigration checks the planner end to end: minimal diff, budget
// respected, staged partial migration, per-step SLA evaluation
// bit-identical to from-scratch scoring, and loop-freedom verification
// on every intermediate state.
func TestPlanMigration(t *testing.T) {
	ev := ctrlTestEvaluator(t, 8, 40, 5)
	m := ev.Graph().NumLinks()
	rng := rand.New(rand.NewSource(6))
	cur := routing.RandomWeightSetting(m, 20, rng)
	tgt := cur.Clone()
	// A target differing on exactly 9 links.
	perm := rng.Perm(m)[:9]
	for _, l := range perm {
		tgt.Set(l, int32(1+rng.Intn(20)), int32(1+rng.Intn(20)))
	}
	diff := 0
	for l := 0; l < m; l++ {
		if cur.Delay[l] != tgt.Delay[l] || cur.Throughput[l] != tgt.Throughput[l] {
			diff++
		}
	}

	mask := graph.NewMask(ev.Graph())
	mask.FailLink(1)

	// Unbounded: the plan must reach the target.
	full, err := PlanMigration(ev, cur, tgt, mask, nil, nil, PlanConfig{ViolationSlack: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Complete || full.Remaining != 0 || len(full.Steps) != diff {
		t.Fatalf("unbounded plan: complete=%v remaining=%d steps=%d want %d",
			full.Complete, full.Remaining, len(full.Steps), diff)
	}
	// Final state must equal the target evaluation bit-for-bit.
	if full.Final.Cost != full.Target.Cost || full.Final.Violations != full.Target.Violations {
		t.Fatalf("final %+v != target %+v", full.Final, full.Target)
	}

	// Every intermediate step: loop-free under the independent check and
	// SLA-evaluated exactly as a from-scratch run of the intermediate
	// weights.
	w := cur.Clone()
	var want routing.Result
	for i, st := range full.Steps {
		w.Set(st.Link, st.Delay, st.Throughput)
		ev.EvaluateDemands(w, mask, -1, nil, nil, &want)
		if st.Result.Cost != want.Cost || st.Result.Violations != want.Violations {
			t.Fatalf("step %d result %+v != from-scratch %+v", i, st.Result, want)
		}
		if err := VerifyLoopFree(ev.Graph(), w, mask); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if !w.Equal(tgt) {
		t.Fatal("steps do not reconstruct the target")
	}

	// Bounded: MaxChanges caps the stage, Remaining counts the rest.
	staged, err := PlanMigration(ev, cur, tgt, mask, nil, nil, PlanConfig{MaxChanges: 4, ViolationSlack: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if staged.Complete || len(staged.Steps) != 4 || staged.Remaining != diff-4 {
		t.Fatalf("staged plan: complete=%v steps=%d remaining=%d", staged.Complete, len(staged.Steps), staged.Remaining)
	}

	// No diff: trivially complete, no steps.
	same, err := PlanMigration(ev, cur, cur, nil, nil, nil, PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !same.Complete || len(same.Steps) != 0 {
		t.Fatalf("identity plan has %d steps", len(same.Steps))
	}
}

func TestPlanMigrationGreedyOrderImproves(t *testing.T) {
	// The greedy order must be monotone when feasible: each prefix is
	// the best available, so the plan never commits a step that is
	// lexicographically worse than just staying put — unless staying
	// put cannot reach the target at all. Verify the weaker, always-true
	// property: the last step lands exactly on the target evaluation.
	ev := ctrlTestEvaluator(t, 8, 40, 7)
	m := ev.Graph().NumLinks()
	rng := rand.New(rand.NewSource(8))
	cur := routing.RandomWeightSetting(m, 20, rng)
	tgt := routing.RandomWeightSetting(m, 20, rng)
	plan, err := PlanMigration(ev, cur, tgt, nil, nil, nil, PlanConfig{ViolationSlack: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Complete {
		t.Fatalf("unbounded unconstrained plan incomplete: remaining %d, blocked %v", plan.Remaining, plan.Blocked)
	}
	last := plan.Steps[len(plan.Steps)-1].Result
	if last.Cost != plan.Target.Cost {
		t.Fatalf("last step %+v != target %+v", last, plan.Target)
	}
}

func TestVerifyLoopFree(t *testing.T) {
	ev := ctrlTestEvaluator(t, 10, 50, 9)
	w := routing.RandomWeightSetting(ev.Graph().NumLinks(), 20, rand.New(rand.NewSource(10)))
	if err := VerifyLoopFree(ev.Graph(), w, nil); err != nil {
		t.Errorf("valid setting failed verification: %v", err)
	}
	mask := graph.NewMask(ev.Graph())
	mask.FailLink(0)
	mask.FailNode(3)
	if err := VerifyLoopFree(ev.Graph(), w, mask); err != nil {
		t.Errorf("valid setting under failures failed verification: %v", err)
	}
}

func TestLibraryJSONRoundTrip(t *testing.T) {
	ev := ctrlTestEvaluator(t, 8, 40, 11)
	set := mixedSet(ev)
	lib := buildTestLibrary(t, ev, set, 2)

	data, err := json.Marshal(lib)
	if err != nil {
		t.Fatal(err)
	}
	var back Library
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Set != lib.Set || back.Size() != lib.Size() || len(back.Scenarios) != len(lib.Scenarios) {
		t.Fatalf("round trip changed shape: %+v", back)
	}
	for i := range lib.Entries {
		if !back.Entries[i].W.Equal(lib.Entries[i].W) {
			t.Errorf("entry %d weights changed", i)
		}
		if !reflect.DeepEqual(back.Entries[i].Fingerprint, lib.Entries[i].Fingerprint) {
			t.Errorf("entry %d fingerprint changed", i)
		}
	}

	if err := new(Library).UnmarshalJSON([]byte(`{"entries":[]}`)); err == nil {
		t.Error("empty library accepted")
	}
	bad := `{"entries":[{"name":"a","weights":{"delay":[1],"throughput":[1]}},{"name":"b","weights":{"delay":[1,2],"throughput":[1,2]}}]}`
	if err := new(Library).UnmarshalJSON([]byte(bad)); err == nil {
		t.Error("mismatched link counts accepted")
	}
}

func TestFromWeightSettings(t *testing.T) {
	ev := ctrlTestEvaluator(t, 8, 40, 12)
	m := ev.Graph().NumLinks()
	rng := rand.New(rand.NewSource(13))
	ws := []*routing.WeightSetting{
		routing.RandomWeightSetting(m, 20, rng),
		routing.RandomWeightSetting(m, 20, rng),
	}
	lib, err := FromWeightSettings(ev, []string{"a", "b"}, ws)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Size() != 2 || lib.Entries[0].Name != "a" || !lib.Entries[1].W.Equal(ws[1]) || lib.Entries[1].Fingerprint != nil {
		t.Fatalf("imported library wrong: %+v", lib)
	}
	if lib, err := FromWeightSettings(ev, nil, ws); err != nil || lib.Entries[1].Name != "cfg-1" {
		t.Errorf("default names: %v, %v", lib, err)
	}
	if _, err := FromWeightSettings(ev, []string{"only-one"}, ws); err == nil {
		t.Error("misaligned names accepted")
	}
	if _, err := FromWeightSettings(ev, nil, nil); err == nil {
		t.Error("empty weights accepted")
	}
}
