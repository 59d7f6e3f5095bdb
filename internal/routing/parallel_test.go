package routing

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// driveTwinSessions runs a serial session and a parallel session (4
// workers) through one identical randomized event stream — weight moves
// with reverts, single link toggles, batched link events, sparse demand
// deltas and full rebases — requiring bit-identical results after every
// step. Combined with the evaluator-equivalence drives (which pin the
// serial path to the stateless oracle), this pins the parallel regions
// to the exact same bits.
func driveTwinSessions(t *testing.T, ev *Evaluator, steps int, seed int64) {
	t.Helper()
	g := ev.Graph()
	m := g.NumLinks()
	ser := ev.NewSession(graph.NewMask(g), -1)
	par := ev.NewSession(graph.NewMask(g), -1)
	par.SetParallelism(4)
	rng := rand.New(rand.NewSource(seed))
	w := RandomWeightSetting(m, 20, rng)

	refD := ev.DemandDelay().Clone()
	refT := ev.DemandThroughput().Clone()

	check := func(step string, a, b Result) {
		t.Helper()
		requireSameResult(t, step, b, a)
	}

	check("init", ser.Init(w), par.Init(w))
	down := make([]bool, m)
	for i := 0; i < steps; i++ {
		switch r := rng.Float64(); {
		case r < 0.25:
			li := rng.Intn(m)
			down[li] = !down[li]
			check("toggle", setLink(ser, li, !down[li]), setLink(par, li, !down[li]))
		case r < 0.4:
			k := 2 + rng.Intn(8)
			chg := make([]LinkStateChange, 0, k)
			for j := 0; j < k; j++ {
				li := rng.Intn(m)
				up := rng.Intn(2) == 0
				down[li] = !up
				chg = append(chg, LinkStateChange{Link: li, Up: up})
			}
			check("batch", ser.SetLinkStates(chg), par.SetLinkStates(chg))
		case r < 0.55:
			var dd, dt *traffic.Delta
			if rng.Intn(3) > 0 {
				dd = randomDelta(refD, 6, rng)
				refD.ApplyDelta(dd)
			}
			if rng.Intn(3) > 0 {
				dt = randomDelta(refT, 6, rng)
				refT.ApplyDelta(dt)
			}
			check("delta", ser.ApplyDemandDelta(dd, dt), par.ApplyDemandDelta(dd, dt))
		case r < 0.9:
			l := rng.Intn(m)
			wd := int32(1 + rng.Intn(20))
			wt := int32(1 + rng.Intn(20))
			prevD, prevT := w.Set(l, wd, wt)
			check("apply", ser.Apply(l, wd, wt), par.Apply(l, wd, wt))
			if rng.Float64() < 0.5 {
				w.Set(l, prevD, prevT)
				ser.Revert()
				par.Revert()
				check("revert", ser.Result(), par.Result())
			}
		default:
			w = RandomWeightSetting(m, 20, rng)
			check("rebase", ser.Init(w), par.Init(w))
		}
	}
}

func TestSessionParallelMatchesSerialRand8(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 8, 40, 51)
	driveTwinSessions(t, ev, 250, 151)
}

func TestSessionParallelMatchesSerialISP16(t *testing.T) {
	steps := 150
	if testing.Short() {
		steps = 50
	}
	ev := sessionTestEvaluator(t, topogen.ISPKind, 0, 0, 52)
	driveTwinSessions(t, ev, steps, 152)
}

func TestSessionParallelMatchesSerialRandTopo100(t *testing.T) {
	steps := 40
	if testing.Short() {
		steps = 10
	}
	ev := sessionTestEvaluator(t, topogen.RandKind, 100, 500, 53)
	driveTwinSessions(t, ev, steps, 153)
}

// TestSessionParallelMatchesEvaluator pins the parallel path directly
// against the stateless oracle (not just against the serial session):
// the full soak mix at 4 workers, checked against EvaluateDemands after
// every step.
func TestSessionParallelMatchesEvaluator(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 12, 60, 54)
	driveSoak(t, ev, 300, 154, 4)
}

// TestSetParallelismBounds pins the knob's contract: k <= 0 resolves to
// GOMAXPROCS, and flipping parallelism between updates on a live
// session keeps results bit-identical (the knob may be changed at any
// time).
func TestSetParallelismBounds(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 10, 50, 55)
	g := ev.Graph()
	m := g.NumLinks()
	rng := rand.New(rand.NewSource(155))
	w := RandomWeightSetting(m, 20, rng)

	ref := ev.NewSession(graph.NewMask(g), -1)
	s := ev.NewSession(graph.NewMask(g), -1)
	s.SetParallelism(0) // GOMAXPROCS
	requireSameResult(t, "init", s.Init(w), ref.Init(w))
	for i := 0; i < 60; i++ {
		s.SetParallelism(i % 5) // 0 = GOMAXPROCS, 1 = serial, 2..4 workers
		l := rng.Intn(m)
		wd := int32(1 + rng.Intn(20))
		wt := int32(1 + rng.Intn(20))
		w.Set(l, wd, wt)
		requireSameResult(t, "apply", s.Apply(l, wd, wt), ref.Apply(l, wd, wt))
	}
}

// TestSessionSteadyStateAllocs pins the pooled-scratch contract: once a
// session (at parallelism 4) has warmed up every event path, further
// Apply/Revert cycles, link toggles, batched link events and demand
// deltas allocate nothing. Per-worker scratch, undo stashes, task lists
// and changed-link candidate buffers must all come from pools.
func TestSessionSteadyStateAllocs(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 30, 150, 56)
	g := ev.Graph()
	m := g.NumLinks()
	s := ev.NewSession(graph.NewMask(g), -1)
	s.SetParallelism(4)
	rng := rand.New(rand.NewSource(156))
	w := RandomWeightSetting(m, 20, rng)
	s.Init(w)

	chg := make([]LinkStateChange, 4)
	dd := &traffic.Delta{Entries: make([]traffic.DeltaEntry, 3)}
	step := func() {
		l := rng.Intn(m)
		s.Apply(l, int32(1+rng.Intn(20)), int32(1+rng.Intn(20)))
		s.Revert()
		li := rng.Intn(m)
		setLink(s, li, false)
		setLink(s, li, true)
		for j := range chg {
			chg[j] = LinkStateChange{Link: rng.Intn(m), Up: rng.Intn(2) == 0}
		}
		s.SetLinkStates(chg)
		for j := range chg {
			chg[j].Up = true
		}
		s.SetLinkStates(chg)
		for j := range dd.Entries {
			src := rng.Intn(g.NumNodes())
			dst := rng.Intn(g.NumNodes())
			for dst == src {
				dst = rng.Intn(g.NumNodes())
			}
			dd.Entries[j] = traffic.DeltaEntry{S: src, T: dst, New: rng.Float64()}
		}
		s.ApplyDemandDelta(dd, nil)
	}
	// Warm-up: grow every pool, free list and stash to steady state.
	for i := 0; i < 50; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("steady-state session update allocated %.1f times per cycle, want 0", allocs)
	}
}
