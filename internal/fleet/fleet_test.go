package fleet

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/ctrl"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// testEvaluator builds a random topology with gravity traffic scaled to
// 50% average utilization, as the ctrl tests do.
func testEvaluator(t testing.TB, nodes, links int, seed int64) *routing.Evaluator {
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

// testLibrary assembles a k-configuration library from random weight
// settings — cheap, and enough to exercise selection and migration.
func testLibrary(t testing.TB, ev *routing.Evaluator, k int, seed int64) *ctrl.Library {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ws := make([]*routing.WeightSetting, k)
	for i := range ws {
		ws[i] = routing.RandomWeightSetting(ev.Graph().NumLinks(), 20, rng)
	}
	lib, err := ctrl.FromWeightSettings(ev, nil, ws)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// eventStream renders a deterministic random telemetry stream against
// the evaluator's network: link flaps, sparse hot-spot deltas (onset
// and inverse, so demands keep drifting but stay positive), and
// occasional dense demand updates.
func eventStream(ev *routing.Evaluator, n int, seed int64) []scenario.Event {
	rng := rand.New(rand.NewSource(seed))
	g := ev.Graph()
	nodes := g.NumNodes()
	out := make([]scenario.Event, 0, n)
	var pendingInverse []*traffic.Delta
	for len(out) < n {
		switch rng.Intn(6) {
		case 0, 1:
			out = append(out, scenario.Event{Kind: scenario.EventLinkDown, Link: rng.Intn(g.NumLinks())})
		case 2, 3:
			out = append(out, scenario.Event{Kind: scenario.EventLinkUp, Link: rng.Intn(g.NumLinks())})
		case 4:
			// Hot-spot surge on one destination column, inverse queued so
			// the drift periodically heals.
			tgt := rng.Intn(nodes)
			d := &traffic.Delta{}
			for s := 0; s < nodes; s++ {
				if s == tgt {
					continue
				}
				old := ev.DemandDelay().At(s, tgt)
				d.Entries = append(d.Entries, traffic.DeltaEntry{S: s, T: tgt, Old: old, New: old * (1.2 + rng.Float64())})
			}
			out = append(out, scenario.Event{Kind: scenario.EventDemandDelta, DeltaD: d})
			pendingInverse = append(pendingInverse, d.Inverse())
		case 5:
			if len(pendingInverse) > 0 {
				out = append(out, scenario.Event{Kind: scenario.EventDemandDelta, DeltaD: pendingInverse[0]})
				pendingInverse = pendingInverse[1:]
			} else {
				f := 0.8 + rng.Float64()
				out = append(out, scenario.Event{
					Kind: scenario.EventDemand,
					DemD: ev.DemandDelay().Clone().Scale(f),
					DemT: ev.DemandThroughput().Clone().Scale(f),
				})
			}
		}
	}
	return out
}

// requireSameState asserts two controllers are bit-identical: same
// advice, same full state (every candidate score, down-link set,
// demand-derived evaluations), and same migration plan toward the
// advised configuration.
func requireSameState(t *testing.T, want, got *ctrl.Selector, label string) {
	t.Helper()
	wa, ga := want.Advise(), got.Advise()
	if !reflect.DeepEqual(wa, ga) {
		t.Fatalf("%s: advice diverged:\nwant %+v\ngot  %+v", label, wa, ga)
	}
	ws, gs := want.State(), got.State()
	// The events counter advances per *surviving* effective event, and
	// ingest coalescing collapses superseded events before delivery — so
	// a queued path legitimately counts fewer events than a sequential
	// twin. Everything else must match bit for bit.
	ws.Events, gs.Events = 0, 0
	if !reflect.DeepEqual(ws, gs) {
		t.Fatalf("%s: state diverged:\nwant %+v\ngot  %+v", label, ws, gs)
	}
	wp, werr := want.Plan(wa.Config, 4)
	gp, gerr := got.Plan(ga.Config, 4)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: plan errors diverged: %v vs %v", label, werr, gerr)
	}
	if werr == nil {
		if wp.Target != gp.Target || !reflect.DeepEqual(wp.P, gp.P) {
			t.Fatalf("%s: plans diverged:\nwant %+v\ngot  %+v", label, wp.P, gp.P)
		}
	}
}
