package routing

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/topogen"
)

// TestSetLinkStatesMatchesEvaluator drives a session through random
// multi-link batches — sizes 1..10, with duplicate links and entries
// restating the current state — interleaved with weight moves, checking
// bit-equality against the stateless evaluator under a mirrored mask
// after every batch.
func TestSetLinkStatesMatchesEvaluator(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 12, 60, 71)
	g := ev.Graph()
	m := g.NumLinks()
	s := ev.NewSession(graph.NewMask(g), -1)
	ref := graph.NewMask(g)
	rng := rand.New(rand.NewSource(72))
	w := RandomWeightSetting(m, 20, rng)
	var want Result

	check := func(step string) {
		t.Helper()
		ev.EvaluateDemands(w, ref, -1, nil, nil, &want)
		requireSameResult(t, step, s.Result(), want)
	}

	s.Init(w)
	check("init")
	down := make([]bool, m)
	for i := 0; i < 250; i++ {
		k := 1 + rng.Intn(10)
		chg := make([]LinkStateChange, 0, k)
		for j := 0; j < k; j++ {
			li := rng.Intn(m)
			var up bool
			switch rng.Intn(3) {
			case 0:
				up = down[li] // toggle
			case 1:
				up = !down[li] // restate the current state
			default:
				up = rng.Intn(2) == 0
			}
			down[li] = !up
			if up {
				ref.ReviveLink(li)
			} else {
				ref.FailLink(li)
			}
			chg = append(chg, LinkStateChange{Link: li, Up: up})
		}
		s.SetLinkStates(chg)
		check("batch")
		if rng.Float64() < 0.3 {
			l := rng.Intn(m)
			wd := int32(1 + rng.Intn(20))
			wt := int32(1 + rng.Intn(20))
			w.Set(l, wd, wt)
			s.Apply(l, wd, wt)
			check("apply")
		}
	}
}

// TestSetLinkStatesMatchesSequential pins batched semantics directly:
// one SetLinkStates call must land on exactly the same bits as applying
// the same entries one at a time as one-change batches (last-wins order).
func TestSetLinkStatesMatchesSequential(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 16, 80, 73)
	g := ev.Graph()
	m := g.NumLinks()
	batch := ev.NewSession(graph.NewMask(g), -1)
	seq := ev.NewSession(graph.NewMask(g), -1)
	rng := rand.New(rand.NewSource(74))
	w := RandomWeightSetting(m, 20, rng)
	requireSameResult(t, "init", batch.Init(w), seq.Init(w))

	for i := 0; i < 150; i++ {
		k := 1 + rng.Intn(10)
		chg := make([]LinkStateChange, 0, k)
		for j := 0; j < k; j++ {
			chg = append(chg, LinkStateChange{Link: rng.Intn(m), Up: rng.Intn(2) == 0})
		}
		var last Result
		for _, c := range chg {
			last = setLink(seq, c.Link, c.Up)
		}
		requireSameResult(t, "batch vs sequential", batch.SetLinkStates(chg), last)
	}
}

// TestSetLinkStatesSRLG trips and restores shared-risk link groups of 8
// links at once — the fiber-cut shape the batch path is built for —
// checking each transition against the stateless oracle.
func TestSetLinkStatesSRLG(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 30, 150, 75)
	g := ev.Graph()
	m := g.NumLinks()
	s := ev.NewSession(graph.NewMask(g), -1)
	ref := graph.NewMask(g)
	rng := rand.New(rand.NewSource(76))
	w := RandomWeightSetting(m, 20, rng)
	var want Result

	check := func(step string) {
		t.Helper()
		ev.EvaluateDemands(w, ref, -1, nil, nil, &want)
		requireSameResult(t, step, s.Result(), want)
	}

	s.Init(w)
	check("init")
	for group := 0; group < 20; group++ {
		links := rng.Perm(m)[:8]
		trip := make([]LinkStateChange, 0, 8)
		restore := make([]LinkStateChange, 0, 8)
		for _, li := range links {
			trip = append(trip, LinkStateChange{Link: li, Up: false})
			restore = append(restore, LinkStateChange{Link: li, Up: true})
			ref.FailLink(li)
		}
		s.SetLinkStates(trip)
		check("srlg trip")
		for _, li := range links {
			ref.ReviveLink(li)
		}
		s.SetLinkStates(restore)
		check("srlg restore")
	}
}

// TestSetLinkStatesEdgeCases covers the degenerate batch paths: empty
// batches, all-restating batches, nil-mask sessions, last-wins
// duplicate entries, dead-endpoint flips, and the before-Init panic.
func TestSetLinkStatesEdgeCases(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 12, 60, 77)
	g := ev.Graph()
	rng := rand.New(rand.NewSource(78))
	w := RandomWeightSetting(g.NumLinks(), 20, rng)

	// Empty (or fully no-op) batches are pure no-ops, like a flip
	// restating the current state: the pending Apply undo survives and
	// Revert still works.
	s := ev.NewSession(graph.NewMask(g), -1)
	before0 := s.Init(w)
	applied := s.Apply(2, 9, 9)
	requireSameResult(t, "empty batch", s.SetLinkStates(nil), applied)
	s.Revert()
	requireSameResult(t, "revert after empty batch", s.Result(), before0)

	// All entries restate the current state: bit-identical no-op.
	s2 := ev.NewSession(graph.NewMask(g), -1)
	before := s2.Init(w)
	requireSameResult(t, "restating batch", s2.SetLinkStates([]LinkStateChange{
		{Link: 1, Up: true}, {Link: 5, Up: true}, {Link: 1, Up: true},
	}), before)

	// Last-wins duplicates: down-then-up on an alive link is a no-op;
	// up-then-down fails it.
	requireSameResult(t, "down-then-up", s2.SetLinkStates([]LinkStateChange{
		{Link: 3, Up: false}, {Link: 3, Up: true},
	}), before)
	ref := graph.NewMask(g)
	ref.FailLink(4)
	var want Result
	ev.EvaluateDemands(w, ref, -1, nil, nil, &want)
	requireSameResult(t, "up-then-down", s2.SetLinkStates([]LinkStateChange{
		{Link: 4, Up: true}, {Link: 4, Up: false},
	}), want)

	// Nil-mask session: an all-up batch stays maskless and unchanged; a
	// batch with an effective failure transparently acquires a mask.
	nil1 := ev.NewSession(nil, -1)
	before = nil1.Init(w)
	requireSameResult(t, "nil-mask all-up", nil1.SetLinkStates([]LinkStateChange{
		{Link: 0, Up: true}, {Link: 7, Up: true},
	}), before)
	requireSameResult(t, "nil-mask with failure", nil1.SetLinkStates([]LinkStateChange{
		{Link: 4, Up: false},
	}), want)

	// Dead-endpoint flips: committed to the mask but unobservable; a
	// batch of only such flips changes nothing, and the session stays
	// consistent afterwards.
	v := 3
	ns := ev.NewNodeFailureSession(v)
	nref := graph.NewMask(g)
	nref.FailNode(v)
	ns.Init(w)
	var incident []LinkStateChange
	for li := 0; li < g.NumLinks(); li++ {
		if int(g.Link(li).From) == v || int(g.Link(li).To) == v {
			incident = append(incident, LinkStateChange{Link: li, Up: false})
			nref.FailLink(li)
			if len(incident) == 3 {
				break
			}
		}
	}
	if len(incident) == 0 {
		t.Fatal("no links incident to failed node")
	}
	ev.EvaluateDemands(w, nref, v, nil, nil, &want)
	requireSameResult(t, "dead-endpoint batch", ns.SetLinkStates(incident), want)
	other := 0
	for int(g.Link(other).From) == v || int(g.Link(other).To) == v {
		other++
	}
	nref.FailLink(other)
	ev.EvaluateDemands(w, nref, v, nil, nil, &want)
	requireSameResult(t, "toggle after dead-endpoint batch",
		ns.SetLinkStates([]LinkStateChange{{Link: other, Up: false}}), want)

	// Before Init: panic, matching Apply.
	uninit := ev.NewSession(nil, -1)
	defer func() {
		if recover() == nil {
			t.Error("SetLinkStates before Init should panic")
		}
	}()
	uninit.SetLinkStates([]LinkStateChange{{Link: 0, Up: false}})
}
