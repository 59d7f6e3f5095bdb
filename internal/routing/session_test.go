package routing

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

func sessionTestEvaluator(t testing.TB, kind topogen.Kind, nodes, links int, seed int64) *Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := topogen.Generate(topogen.Spec{Kind: kind, Nodes: nodes, DirectedLinks: links}, rng)
	if err != nil {
		t.Fatal(err)
	}
	demD, demT := traffic.Gravity(g.NumNodes(), 1, 0.3, rng)
	if _, err := ScaleToAvgUtil(g, demD, demT, 0.5); err != nil {
		t.Fatal(err)
	}
	return NewEvaluator(g, demD, demT, cost.DefaultParams(), WorstPath)
}

// setLink flips one link through a one-change SetLinkStates batch.
func setLink(s *Session, li int, up bool) Result {
	return s.SetLinkStates([]LinkStateChange{{Link: li, Up: up}})
}

// requireSameResult asserts bit-identical aggregate results (Detail
// fields excluded; sessions never fill them).
func requireSameResult(t *testing.T, step string, got, want Result) {
	t.Helper()
	if got.Cost != want.Cost || got.PhiNorm != want.PhiNorm ||
		got.Violations != want.Violations || got.Disconnected != want.Disconnected ||
		got.MaxUtil != want.MaxUtil || got.AvgUtil != want.AvgUtil {
		t.Fatalf("%s: session %+v != evaluator %+v", step, got, want)
	}
}

// driveSession performs steps random Apply/Revert moves against one
// scenario, checking every session result bit-for-bit against a
// from-scratch evaluation of the same weights.
func driveSession(t *testing.T, ev *Evaluator, s *Session, mask *graph.Mask, skipNode int, steps int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := ev.Graph().NumLinks()
	w := RandomWeightSetting(m, 20, rng)
	var want Result

	check := func(step string) {
		t.Helper()
		ev.EvaluateDemands(w, mask, skipNode, nil, nil, &want)
		requireSameResult(t, step, s.Result(), want)
		if !s.Weights().Equal(w) {
			t.Fatalf("%s: session weights diverged from reference", step)
		}
	}

	s.Init(w)
	check("init")
	for i := 0; i < steps; i++ {
		switch {
		case rng.Float64() < 0.1:
			// Occasional rebase, as a diversification restart would do.
			w = RandomWeightSetting(m, 20, rng)
			s.Init(w)
			check("rebase")
		default:
			l := rng.Intn(m)
			wd := int32(1 + rng.Intn(20))
			wt := int32(1 + rng.Intn(20))
			prevD, prevT := w.Set(l, wd, wt)
			s.Apply(l, wd, wt)
			check("apply")
			if rng.Float64() < 0.5 {
				w.Set(l, prevD, prevT)
				s.Revert()
				check("revert")
			}
		}
	}
}

func TestSessionMatchesEvaluatorNormal(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 10, 50, 1)
	driveSession(t, ev, ev.NewSession(nil, -1), nil, -1, 300, 42)
}

func TestSessionMatchesEvaluatorISP(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.ISPKind, 0, 0, 2)
	driveSession(t, ev, ev.NewSession(nil, -1), nil, -1, 200, 43)
}

// linkDownMask returns a fresh mask with directed link li failed, both
// directions when both is set.
func linkDownMask(g *graph.Graph, li int, both bool) *graph.Mask {
	mask := graph.NewMask(g)
	if both {
		mask.FailLinkBoth(li)
	} else {
		mask.FailLink(li)
	}
	return mask
}

// nodeDownMask returns a fresh mask with node v failed.
func nodeDownMask(g *graph.Graph, v int) *graph.Mask {
	mask := graph.NewMask(g)
	mask.FailNode(v)
	return mask
}

func TestSessionMatchesEvaluatorLinkFailure(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 10, 50, 3)
	g := ev.Graph()
	for _, li := range []int{0, 7, 23} {
		s := ev.NewSession(linkDownMask(g, li, false), -1)
		driveSession(t, ev, s, linkDownMask(g, li, false), -1, 120, int64(100+li))
	}
	// Physical (both-direction) failure.
	s := ev.NewSession(linkDownMask(g, 4, true), -1)
	driveSession(t, ev, s, linkDownMask(g, 4, true), -1, 120, 999)
}

func TestSessionMatchesEvaluatorNodeFailure(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 12, 60, 4)
	for _, v := range []int{0, 5, 11} {
		s := ev.NewSession(nodeDownMask(ev.Graph(), v), v)
		driveSession(t, ev, s, nodeDownMask(ev.Graph(), v), v, 120, int64(200+v))
	}
}

// TestSessionDisconnectingScenario drives a session on a sparse ring-like
// topology where single failures actually disconnect pairs, exercising
// the drop-penalty and disconnected accounting.
func TestSessionDisconnectingScenario(t *testing.T) {
	b := graph.NewBuilder(6)
	for i := 0; i < 6; i++ {
		b.AddEdge(i, (i+1)%6, 200, 2)
	}
	b.AddEdge(0, 3, 200, 2)
	g := b.MustBuild()
	rng := rand.New(rand.NewSource(5))
	demD, demT := traffic.Gravity(6, 1, 0.4, rng)
	if _, err := ScaleToAvgUtil(g, demD, demT, 0.6); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(g, demD, demT, cost.DefaultParams(), WorstPath)

	mask := graph.NewMask(g)
	mask.FailLinkBoth(0)
	s := ev.NewSession(mask, -1)
	mask2 := graph.NewMask(g)
	mask2.FailLinkBoth(0)
	driveSession(t, ev, s, mask2, -1, 150, 6)
}

func TestSessionRevertRequiresApply(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 8, 40, 7)
	s := ev.NewSession(nil, -1)
	s.Init(NewWeightSetting(ev.Graph().NumLinks()))
	defer func() {
		if recover() == nil {
			t.Error("Revert without Apply should panic")
		}
	}()
	s.Revert()
}

func TestSessionApplyRequiresInit(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 8, 40, 8)
	s := ev.NewSession(nil, -1)
	defer func() {
		if recover() == nil {
			t.Error("Apply before Init should panic")
		}
	}()
	s.Apply(0, 2, 2)
}

func TestSessionNoopApplyIsExact(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 10, 50, 9)
	s := ev.NewSession(nil, -1)
	rng := rand.New(rand.NewSource(10))
	w := RandomWeightSetting(ev.Graph().NumLinks(), 20, rng)
	before := s.Init(w)
	// Re-applying the current weights is a no-op.
	after := s.Apply(3, w.Delay[3], w.Throughput[3])
	requireSameResult(t, "noop apply", after, before)
	s.Revert()
	requireSameResult(t, "revert after noop", s.Result(), before)
}

func TestSessionBytesPositive(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 8, 40, 11)
	if ev.SessionBytes() <= 0 {
		t.Error("SessionBytes must be positive")
	}
}

// TestSessionSetLinkStateMatchesEvaluator drives a session through a
// random stream of link-down/link-up events interleaved with weight
// moves, reverts and rebases, checking bit-equality against the
// from-scratch evaluator under a mirrored mask after every step — the
// contract the control plane's event-driven selector relies on.
func TestSessionSetLinkStateMatchesEvaluator(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 12, 60, 21)
	g := ev.Graph()
	m := g.NumLinks()
	s := ev.NewSession(graph.NewMask(g), -1)
	ref := graph.NewMask(g)
	rng := rand.New(rand.NewSource(22))
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
	for i := 0; i < 400; i++ {
		switch r := rng.Float64(); {
		case r < 0.55:
			li := rng.Intn(m)
			if down[li] {
				down[li] = false
				ref.ReviveLink(li)
				setLink(s, li, true)
				check("link-up")
			} else {
				down[li] = true
				ref.FailLink(li)
				setLink(s, li, false)
				check("link-down")
			}
		case r < 0.85:
			l := rng.Intn(m)
			wd := int32(1 + rng.Intn(20))
			wt := int32(1 + rng.Intn(20))
			prevD, prevT := w.Set(l, wd, wt)
			s.Apply(l, wd, wt)
			check("apply")
			if rng.Float64() < 0.5 {
				w.Set(l, prevD, prevT)
				s.Revert()
				check("revert")
			}
		default:
			w = RandomWeightSetting(m, 20, rng)
			s.Init(w)
			check("rebase")
		}
	}
}

// TestSessionSetLinkStateNoop covers the degenerate paths: toggling to
// the current state, toggling links whose endpoint node is down
// (unobservable), and a nil-mask session receiving a link-up.
func TestSessionSetLinkStateNoop(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 12, 60, 23)
	g := ev.Graph()
	rng := rand.New(rand.NewSource(24))
	w := RandomWeightSetting(g.NumLinks(), 20, rng)

	nil1 := ev.NewSession(nil, -1)
	before := nil1.Init(w)
	requireSameResult(t, "nil-mask link-up", setLink(nil1, 3, true), before)

	v := 3
	s := ev.NewSession(nodeDownMask(g, v), v)
	ref := nodeDownMask(g, v)
	s.Init(w)
	var want Result
	check := func(step string) {
		t.Helper()
		ev.EvaluateDemands(w, ref, v, nil, nil, &want)
		requireSameResult(t, step, s.Result(), want)
	}
	check("init")
	// A link incident to the dead node: failing and restoring it is
	// unobservable but must keep the session consistent.
	var incident int = -1
	for li := 0; li < g.NumLinks(); li++ {
		if int(g.Link(li).From) == v || int(g.Link(li).To) == v {
			incident = li
			break
		}
	}
	if incident < 0 {
		t.Fatal("no link incident to failed node")
	}
	setLink(s, incident, false)
	ref.FailLink(incident)
	check("incident down")
	setLink(s, incident, false) // already down
	check("incident down again")
	setLink(s, incident, true)
	ref.ReviveLink(incident)
	check("incident up")
	// And a normal toggle on the same session still tracks exactly.
	other := (incident + 7) % g.NumLinks()
	if int(g.Link(other).From) == v || int(g.Link(other).To) == v {
		other = (other + 1) % g.NumLinks()
	}
	setLink(s, other, false)
	ref.FailLink(other)
	check("other down")
}

// TestSessionScenarioDemandsMatchEvaluator checks sessions with demand
// overrides (surge scenarios) against EvaluateDemands, through weight
// moves and link events.
func TestSessionScenarioDemandsMatchEvaluator(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 10, 50, 25)
	g := ev.Graph()
	m := g.NumLinks()
	rng := rand.New(rand.NewSource(26))
	demD := ev.DemandDelay().Clone().Scale(1.7)
	h := traffic.DefaultHotspot(true)
	_, demT := h.Apply(ev.DemandDelay(), ev.DemandThroughput(), rng)

	s := ev.NewScenarioSession(graph.NewMask(g), -1, demD, demT)
	ref := graph.NewMask(g)
	w := RandomWeightSetting(m, 20, rng)
	var want Result
	check := func(step string) {
		t.Helper()
		ev.EvaluateDemands(w, ref, -1, demD, demT, &want)
		requireSameResult(t, step, s.Result(), want)
	}
	s.Init(w)
	check("init")
	down := make([]bool, m)
	for i := 0; i < 200; i++ {
		if rng.Float64() < 0.3 {
			li := rng.Intn(m)
			down[li] = !down[li]
			if down[li] {
				ref.FailLink(li)
			} else {
				ref.ReviveLink(li)
			}
			setLink(s, li, !down[li])
			check("toggle")
			continue
		}
		l := rng.Intn(m)
		wd := int32(1 + rng.Intn(20))
		wt := int32(1 + rng.Intn(20))
		prevD, prevT := w.Set(l, wd, wt)
		s.Apply(l, wd, wt)
		check("apply")
		if rng.Float64() < 0.5 {
			w.Set(l, prevD, prevT)
			s.Revert()
			check("revert")
		}
	}
}

// TestSessionSetDemands swaps demand matrices on a live session and
// checks the rebase (and later moves) stay bit-identical to the
// evaluator under the same overrides.
func TestSessionSetDemands(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 10, 50, 27)
	m := ev.Graph().NumLinks()
	rng := rand.New(rand.NewSource(28))
	w := RandomWeightSetting(m, 20, rng)
	s := ev.NewSession(nil, -1)
	s.Init(w)

	surge := ev.DemandThroughput().Clone().Scale(2.5)
	var want Result
	s.SetDemands(nil, surge)
	ev.EvaluateDemands(w, nil, -1, nil, surge, &want)
	requireSameResult(t, "surge", s.Result(), want)

	l := rng.Intn(m)
	s.Apply(l, 7, 9)
	w.Set(l, 7, 9)
	ev.EvaluateDemands(w, nil, -1, nil, surge, &want)
	requireSameResult(t, "apply under surge", s.Result(), want)

	s.SetDemands(nil, nil)
	ev.EvaluateDemands(w, nil, -1, nil, nil, &want)
	requireSameResult(t, "restore base", s.Result(), want)
}
