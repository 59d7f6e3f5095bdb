package ctrl

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

func batchTestSelectors(t *testing.T, nodes, links int, seed int64) (ev *routing.Evaluator, seq, bat *Selector) {
	t.Helper()
	ev = ctrlTestEvaluator(t, nodes, links, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	ws := make([]*routing.WeightSetting, 3)
	for i := range ws {
		ws[i] = routing.RandomWeightSetting(links, 20, rng)
	}
	build := func() *Selector {
		lib, err := FromWeightSettings(ev, nil, ws)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := NewSelector(ev, lib)
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	return ev, build(), build()
}

// mixedBatch interleaves link runs (with restatements), a sparse delta
// and a dense update, so one ObserveBatch exercises the link-run
// accumulator, the flush-on-demand boundary and the final flush.
func mixedBatch(ev *routing.Evaluator) []scenario.Event {
	surge := ev.DemandThroughput().Clone().Scale(1.4)
	return []scenario.Event{
		{Kind: scenario.EventLinkDown, Link: 0},
		{Kind: scenario.EventLinkDown, Link: 3},
		{Kind: scenario.EventLinkDown, Link: 0}, // restates: dedups on both paths
		{Kind: scenario.EventDemandDelta, DeltaT: &traffic.Delta{Entries: []traffic.DeltaEntry{
			{S: 0, T: 1, Old: ev.DemandThroughput().At(0, 1), New: 42},
		}}},
		{Kind: scenario.EventLinkUp, Link: 3},
		{Kind: scenario.EventLinkDown, Link: 5},
		{Kind: scenario.EventDemand, DemT: surge},
		{Kind: scenario.EventLinkUp, Link: 0},
		{Kind: scenario.EventLinkUp, Link: 0}, // restates
	}
}

// observe1 delivers one event as a batch of one.
func observe1(s *Selector, e scenario.Event) error {
	return s.ObserveBatch([]scenario.Event{e}, 0, 0)
}

// conditions returns the selector's observed conditions — a mask of
// its down links and the demand overrides in effect — from its
// checkpoint, for from-scratch oracle evaluations.
func conditions(sel *Selector) (*graph.Mask, *traffic.Matrix, *traffic.Matrix) {
	cp := sel.Checkpoint()
	mask := graph.NewMask(sel.ev.Graph())
	for _, li := range cp.Down {
		mask.FailLink(li)
	}
	return mask, cp.DemD, cp.DemT
}

func sameSelectorState(t *testing.T, seq, bat *Selector, at string) {
	t.Helper()
	ss, bs := seq.State(), bat.State()
	for i := range ss.Configs {
		rs, rb := ss.Configs[i].Result, bs.Configs[i].Result
		if rs.Cost != rb.Cost || rs.PhiNorm != rb.PhiNorm {
			t.Fatalf("%s: candidate %d diverged: %+v vs %+v", at, i, rs, rb)
		}
	}
	is, ib := seq.Advise().Config, bat.Advise().Config
	if is != ib {
		t.Fatalf("%s: advise diverged: %d vs %d", at, is, ib)
	}
	if !reflect.DeepEqual(ss.DownLinks, bs.DownLinks) {
		t.Fatalf("%s: down links diverged: %v vs %v", at, ss.DownLinks, bs.DownLinks)
	}
}

// TestObserveBatchMatchesSequential: a raw (uncoalesced) batch must
// leave the selector bit-identical to one-at-a-time delivery —
// including the Events counter, since an uncoalesced batch carries the
// same effective transitions the sequential path counts.
func TestObserveBatchMatchesSequential(t *testing.T) {
	ev, seq, bat := batchTestSelectors(t, 10, 40, 7)
	events := mixedBatch(ev)
	for _, e := range events {
		if err := observe1(seq, e); err != nil {
			t.Fatalf("sequential: %v", err)
		}
	}
	if err := bat.ObserveBatch(events, 0, 0); err != nil {
		t.Fatalf("batch: %v", err)
	}
	sameSelectorState(t, seq, bat, "mixed batch")
	if seq.State().Events != bat.State().Events {
		t.Fatalf("events counter diverged: sequential %d, batch %d", seq.State().Events, bat.State().Events)
	}
}

// randomStream renders a seeded mixed telemetry stream of n events:
// link flaps, a third of them restating the observed state; sparse
// demand deltas, most of them later undone by their inverse; and dense
// updates that scale the base matrices or restore them with nil.
func randomStream(ev *routing.Evaluator, n int, rng *rand.Rand) []scenario.Event {
	g := ev.Graph()
	nodes, links := g.NumNodes(), g.NumLinks()
	down := make([]bool, links)
	cur := [2]*traffic.Matrix{ev.DemandDelay().Clone(), ev.DemandThroughput().Clone()}
	var undo []scenario.Event // inverses of the deltas emitted so far
	events := make([]scenario.Event, 0, n)
	for len(events) < n {
		var e scenario.Event
		switch r := rng.Intn(10); {
		case r < 5:
			li := rng.Intn(links)
			up := down[li] // flip
			if rng.Intn(3) == 0 {
				up = !down[li] // restate
			}
			down[li] = !up
			e = scenario.Event{Kind: scenario.EventLinkDown, Link: li}
			if up {
				e.Kind = scenario.EventLinkUp
			}
		case r < 8 && len(undo) > 0 && rng.Intn(2) == 0:
			k := rng.Intn(len(undo))
			e = undo[k]
			undo = append(undo[:k], undo[k+1:]...)
		case r < 8:
			class := rng.Intn(2)
			d := &traffic.Delta{}
			for _, t := range rng.Perm(nodes)[:1+rng.Intn(3)] {
				s := (t + 1 + rng.Intn(nodes-1)) % nodes
				old := cur[class].At(s, t)
				d.Entries = append(d.Entries, traffic.DeltaEntry{S: s, T: t, Old: old, New: old*(0.5+2*rng.Float64()) + 1})
			}
			e = scenario.Event{Kind: scenario.EventDemandDelta}
			inv := scenario.Event{Kind: scenario.EventDemandDelta}
			if class == 0 {
				e.DeltaD, inv.DeltaD = d, d.Inverse()
			} else {
				e.DeltaT, inv.DeltaT = d, d.Inverse()
			}
			undo = append(undo, inv)
		default:
			e = scenario.Event{Kind: scenario.EventDemand}
			if rng.Intn(2) == 0 {
				f := 0.8 + 0.6*rng.Float64()
				e.DemD = ev.DemandDelay().Clone().Scale(f)
				e.DemT = ev.DemandThroughput().Clone().Scale(f)
			}
		}
		switch e.Kind {
		case scenario.EventDemandDelta:
			if e.DeltaD != nil {
				cur[0].ApplyDelta(e.DeltaD)
			}
			if e.DeltaT != nil {
				cur[1].ApplyDelta(e.DeltaT)
			}
		case scenario.EventDemand:
			cur = [2]*traffic.Matrix{ev.DemandDelay().Clone(), ev.DemandThroughput().Clone()}
			if e.DemD != nil {
				cur = [2]*traffic.Matrix{e.DemD.Clone(), e.DemT.Clone()}
			}
		}
		events = append(events, e)
	}
	return events
}

// requireOracle checks every candidate's score against a from-scratch
// Evaluator run under the selector's own view of the conditions.
func requireOracle(t *testing.T, ev *routing.Evaluator, sel *Selector, at string) {
	t.Helper()
	mask, demD, demT := conditions(sel)
	st := sel.State()
	var want routing.Result
	for i, e := range sel.lib.Entries {
		ev.EvaluateDemands(e.W, mask, -1, demD, demT, &want)
		if got := st.Configs[i].Result; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: candidate %d scored %+v, oracle %+v", at, i, got, want)
		}
	}
}

// TestObserveBatchRandomized splits seeded mixed streams (randomStream)
// into batches at random points, and into singletons — the sequential
// path. After every batch, each candidate must score exactly what the
// oracle computes under the selector's checkpointed conditions, and the
// selector must agree bit for bit with a twin that observed the same
// events one at a time, down links and Events counter included.
func TestObserveBatchRandomized(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		rng := rand.New(rand.NewSource(seed + 50))
		stream := randomStream(ctrlTestEvaluator(t, 12, 48, seed), 150, rng)
		// splits[0] is all singletons; the others cut at random points.
		splits := make([][]int, 3)
		for range stream {
			splits[0] = append(splits[0], 1)
		}
		for k := 1; k < len(splits); k++ {
			for rest := len(stream); rest > 0; {
				size := min(rest, 1+rng.Intn(20))
				splits[k] = append(splits[k], size)
				rest -= size
			}
		}
		for k, sizes := range splits {
			ev, seq, bat := batchTestSelectors(t, 12, 48, seed)
			at := 0
			for _, size := range sizes {
				batch := stream[at : at+size]
				if err := bat.ObserveBatch(batch, 0, 0); err != nil {
					t.Fatalf("seed %d split %d: batch at %d: %v", seed, k, at, err)
				}
				for _, e := range batch {
					if err := observe1(seq, e); err != nil {
						t.Fatalf("sequential: %v", err)
					}
				}
				requireOracle(t, ev, bat, "randomized")
				sameSelectorState(t, seq, bat, "randomized")
				if seq.State().Events != bat.State().Events {
					t.Fatalf("seed %d split %d: events counter diverged: %d vs %d", seed, k, seq.State().Events, bat.State().Events)
				}
				at += size
			}
		}
	}
}

// TestObserveBatchValidationAborts: a malformed event anywhere in the
// batch must reject the whole batch before any mutation.
func TestObserveBatchValidationAborts(t *testing.T) {
	_, _, sel := batchTestSelectors(t, 8, 32, 5)
	bad := []scenario.Event{
		{Kind: scenario.EventLinkDown, Link: 1},
		{Kind: scenario.EventLinkDown, Link: 999}, // out of range
	}
	err := sel.ObserveBatch(bad, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "batch event 1") {
		t.Fatalf("err = %v, want batch event 1 out-of-range", err)
	}
	if sel.State().Events != 0 {
		t.Fatalf("events counter advanced to %d on a rejected batch", sel.State().Events)
	}
	if down := sel.State().DownLinks; len(down) != 0 {
		t.Fatalf("rejected batch mutated link state: %v", down)
	}

	badDelta := []scenario.Event{
		{Kind: scenario.EventLinkDown, Link: 1},
		{Kind: scenario.EventDemandDelta, DeltaT: &traffic.Delta{Entries: []traffic.DeltaEntry{
			{S: 2, T: 2, Old: 0, New: 5}, // self-demand
		}}},
	}
	if err := sel.ObserveBatch(badDelta, 0, 0); err == nil {
		t.Fatal("self-demand delta accepted")
	}
	if st := sel.State(); st.Events != 0 || len(st.DownLinks) != 0 {
		t.Fatalf("rejected batch mutated state: events=%d down=%v", st.Events, st.DownLinks)
	}
}

func TestObserveBatchEmptyAndSingle(t *testing.T) {
	_, seq, bat := batchTestSelectors(t, 8, 32, 9)
	if err := bat.ObserveBatch(nil, 0, 0); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if bat.State().Events != 0 {
		t.Fatalf("empty batch advanced events counter to %d", bat.State().Events)
	}
	one := []scenario.Event{{Kind: scenario.EventLinkDown, Link: 2}}
	if err := observe1(seq, one[0]); err != nil {
		t.Fatal(err)
	}
	if err := bat.ObserveBatch(one, 0, 0); err != nil {
		t.Fatal(err)
	}
	sameSelectorState(t, seq, bat, "single-event batch")
}
