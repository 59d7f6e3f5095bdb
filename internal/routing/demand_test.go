package routing

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// randomDelta builds a sparse random demand delta against cur: up to
// maxEntries random pairs moved to a new value (zeroed, scaled, or
// shifted), plus occasional no-op entries restating the current value
// (which the session must skip). Old fields are deliberately left at
// the current value only half the time — the contract is that Old is
// untrusted.
func randomDelta(cur *traffic.Matrix, maxEntries int, rng *rand.Rand) *traffic.Delta {
	n := cur.Size()
	d := &traffic.Delta{}
	for k := 1 + rng.Intn(maxEntries); k > 0; k-- {
		s := rng.Intn(n)
		t := rng.Intn(n)
		for t == s {
			t = rng.Intn(n)
		}
		old := cur.At(s, t)
		var next float64
		switch rng.Intn(4) {
		case 0:
			next = 0
		case 1:
			next = old * (0.25 + 3*rng.Float64())
		case 2:
			next = old + rng.Float64()
		default:
			next = old // no-op entry
		}
		e := traffic.DeltaEntry{S: s, T: t, Old: old, New: next}
		if rng.Intn(2) == 0 {
			e.Old = rng.Float64() // untrusted
		}
		d.Entries = append(d.Entries, e)
	}
	return d
}

// hotspotColumnDelta surges all demand toward one destination column by
// factor — the single-hotspot shape the delta path is built for.
func hotspotColumnDelta(cur *traffic.Matrix, dest int, factor float64) *traffic.Delta {
	d := &traffic.Delta{}
	for s := 0; s < cur.Size(); s++ {
		if s == dest || cur.At(s, dest) == 0 {
			continue
		}
		d.Entries = append(d.Entries, traffic.DeltaEntry{S: s, T: dest, Old: cur.At(s, dest), New: cur.At(s, dest) * factor})
	}
	return d
}

// driveDemandSession interleaves sparse demand deltas, dense SetDemands
// updates, link toggles, weight moves with Revert, and Init rebases,
// checking the session bit-for-bit against a from-scratch evaluation of
// mirrored reference state after every step.
func driveDemandSession(t *testing.T, ev *Evaluator, skipNode int, steps int, seed int64) {
	t.Helper()
	g := ev.Graph()
	n, m := g.NumNodes(), g.NumLinks()
	rng := rand.New(rand.NewSource(seed))
	w := RandomWeightSetting(m, 20, rng)

	mask := graph.NewMask(g)
	ref := graph.NewMask(g)
	if skipNode >= 0 {
		mask.FailNode(skipNode)
		ref.FailNode(skipNode)
	}
	s := ev.NewScenarioSession(mask, skipNode, nil, nil)

	// Reference demand state: private copies the session never sees.
	refD := ev.DemandDelay().Clone()
	refT := ev.DemandThroughput().Clone()

	var want Result
	check := func(step string) {
		t.Helper()
		ev.EvaluateDemands(w, ref, skipNode, refD, refT, &want)
		requireSameResult(t, step, s.Result(), want)
	}

	s.Init(w)
	check("init")
	down := make([]bool, m)
	for i := 0; i < steps; i++ {
		switch r := rng.Float64(); {
		case r < 0.35:
			// Sparse delta on one or both classes.
			var dd, dt *traffic.Delta
			if rng.Intn(3) > 0 {
				dd = randomDelta(refD, 4, rng)
				refD.ApplyDelta(dd)
			}
			if rng.Intn(3) > 0 {
				dt = randomDelta(refT, 4, rng)
				refT.ApplyDelta(dt)
			}
			s.ApplyDemandDelta(dd, dt)
			check("delta")
		case r < 0.45:
			// Single-hotspot column surge and its exact inverse.
			dest := rng.Intn(n)
			dd := hotspotColumnDelta(refD, dest, 2+4*rng.Float64())
			refD.ApplyDelta(dd)
			s.ApplyDemandDelta(dd, nil)
			check("hotspot")
			refD.ApplyDelta(dd.Inverse())
			s.ApplyDemandDelta(dd.Inverse(), nil)
			check("hotspot-inverse")
		case r < 0.6:
			// Dense update: uniform scale (touches every column) or base
			// restore or a same-values no-op.
			switch rng.Intn(3) {
			case 0:
				f := 0.5 + 1.5*rng.Float64()
				refD = ev.DemandDelay().Clone().Scale(f)
				refT = ev.DemandThroughput().Clone().Scale(f)
				s.SetDemands(refD.Clone(), refT.Clone())
			case 1:
				refD = ev.DemandDelay().Clone()
				refT = ev.DemandThroughput().Clone()
				s.SetDemands(nil, nil)
			default:
				s.SetDemands(refD.Clone(), refT.Clone()) // equal values: no-op
			}
			check("set-demands")
		case r < 0.75:
			li := rng.Intn(m)
			down[li] = !down[li]
			if down[li] {
				ref.FailLink(li)
			} else {
				ref.ReviveLink(li)
			}
			setLink(s, li, !down[li])
			check("toggle")
		case r < 0.95:
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

func TestApplyDemandDeltaMatchesEvaluatorRand8(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 8, 40, 31)
	driveDemandSession(t, ev, -1, 150, 32)
}

func TestApplyDemandDeltaMatchesEvaluatorISP(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.ISPKind, 0, 0, 33)
	driveDemandSession(t, ev, -1, 100, 34)
}

func TestApplyDemandDeltaMatchesEvaluator100(t *testing.T) {
	if testing.Short() {
		t.Skip("100-node equivalence drive is slow")
	}
	ev := sessionTestEvaluator(t, topogen.RandKind, 100, 500, 35)
	driveDemandSession(t, ev, -1, 40, 36)
	driveDemandSession(t, ev, -1, 25, 37)
}

// TestApplyDemandDeltaNodeFailure drives deltas against a node-failure
// scenario: entries sourcing at or targeting the dead node change the
// matrix but are unobservable, and must leave the session consistent.
func TestApplyDemandDeltaNodeFailure(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 12, 60, 38)
	driveDemandSession(t, ev, 3, 150, 39)
}

// TestSetDemandsDiffIsExact pins the dense-update diffing: a no-op
// update does no work but still clears a pending Apply undo, and on a
// sparse column change the per-column refresh equals a session Init'd
// on the new matrices and the evaluator bit for bit.
func TestSetDemandsDiffIsExact(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 10, 50, 40)
	rng := rand.New(rand.NewSource(41))
	w := RandomWeightSetting(ev.Graph().NumLinks(), 20, rng)

	s := ev.NewSession(nil, -1)
	s.Init(w)
	s.Apply(2, 9, 9)
	// Equal-valued update: result returns to the applied state's
	// result, and the pending Revert must be gone.
	res := s.SetDemands(ev.DemandDelay().Clone(), ev.DemandThroughput().Clone())
	requireSameResult(t, "noop set-demands", res, s.Result())
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Revert after SetDemands should panic")
			}
		}()
		s.Revert()
	}()

	// Sparse column change: per-column refresh vs a full rebase.
	surged := ev.DemandThroughput().Clone()
	surged.Set(0, 5, surged.At(0, 5)*3+1)
	surged.Set(7, 5, surged.At(7, 5)*2)
	inc := ev.NewSession(nil, -1)
	inc.Init(w)
	full := ev.NewScenarioSession(nil, -1, nil, surged)
	requireSameResult(t, "delta vs rebase", inc.SetDemands(nil, surged), full.Init(w))
	var want Result
	ev.EvaluateDemands(w, nil, -1, nil, surged, &want)
	requireSameResult(t, "delta vs evaluator", inc.Result(), want)
}

// TestApplyDemandDeltaDoesNotMutateSharedMatrices pins clone-on-write:
// deltas applied to a session that adopted caller matrices (or the
// evaluator's base) must never write through to them.
func TestApplyDemandDeltaDoesNotMutateSharedMatrices(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 8, 40, 42)
	rng := rand.New(rand.NewSource(43))
	w := RandomWeightSetting(ev.Graph().NumLinks(), 20, rng)

	baseD := ev.DemandDelay().Clone()
	baseT := ev.DemandThroughput().Clone()
	s := ev.NewSession(nil, -1)
	s.Init(w)
	s.ApplyDemandDelta(hotspotColumnDelta(ev.DemandDelay(), 2, 3), nil)
	if !ev.DemandDelay().Equal(baseD) || !ev.DemandThroughput().Equal(baseT) {
		t.Fatal("delta mutated the evaluator's base matrices")
	}

	mine := ev.DemandDelay().Clone().Scale(1.5)
	keep := mine.Clone()
	s.SetDemands(mine, nil)
	s.ApplyDemandDelta(hotspotColumnDelta(mine, 4, 2), nil)
	if !mine.Equal(keep) {
		t.Fatal("delta mutated a caller-adopted matrix")
	}
}

func TestApplyDemandDeltaValidates(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 8, 40, 44)
	s := ev.NewSession(nil, -1)
	s.Init(NewWeightSetting(ev.Graph().NumLinks()))
	for _, d := range []*traffic.Delta{
		{Entries: []traffic.DeltaEntry{{S: 0, T: 99, New: 1}}},
		{Entries: []traffic.DeltaEntry{{S: 3, T: 3, New: 1}}},
		{Entries: []traffic.DeltaEntry{{S: 0, T: 1, New: -1}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid delta %+v accepted", d)
				}
			}()
			s.ApplyDemandDelta(d, nil)
		}()
	}
	uninit := ev.NewSession(nil, -1)
	defer func() {
		if recover() == nil {
			t.Error("ApplyDemandDelta before Init should panic")
		}
	}()
	uninit.ApplyDemandDelta(nil, nil)
}
