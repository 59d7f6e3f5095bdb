package routing

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/topogen"
)

// driveSoak subjects one session to a long randomized stream of mixed
// events — weight moves (half immediately reverted), link-down/link-up
// toggles, batched multi-link events (with duplicate and restating
// entries), and occasional full rebases — asserting bit-identical
// equality with the stateless evaluator after every single step. With
// the Ramalingam–Reps repair wired into the session, this is the
// endurance version of the repair equivalence tests: weight repairs,
// toggle repairs, batch repairs, membership-only fast paths, Revert's
// snapshot restoration and Init's from-scratch fallback all interleave
// on the same caches for the whole run. workers sets the session's
// recompute parallelism (1 = serial).
func driveSoak(t *testing.T, ev *Evaluator, steps int, seed int64, workers int) {
	t.Helper()
	g := ev.Graph()
	m := g.NumLinks()
	s := ev.NewSession(graph.NewMask(g), -1)
	s.SetParallelism(workers)
	ref := graph.NewMask(g)
	rng := rand.New(rand.NewSource(seed))
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
	for i := 0; i < steps; i++ {
		switch r := rng.Float64(); {
		case r < 0.35:
			li := rng.Intn(m)
			down[li] = !down[li]
			if down[li] {
				ref.FailLink(li)
			} else {
				ref.ReviveLink(li)
			}
			setLink(s, li, !down[li])
			check("toggle")
		case r < 0.5:
			// Batched multi-link event: random targets, so entries may
			// restate the current state or repeat a link (last wins).
			k := 1 + rng.Intn(8)
			chg := make([]LinkStateChange, 0, k)
			for j := 0; j < k; j++ {
				li := rng.Intn(m)
				up := rng.Intn(2) == 0
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

func TestSessionSoakRand8(t *testing.T) {
	ev := sessionTestEvaluator(t, topogen.RandKind, 8, 40, 31)
	driveSoak(t, ev, 600, 131, 1)
}

func TestSessionSoakISP16(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 80
	}
	ev := sessionTestEvaluator(t, topogen.ISPKind, 0, 0, 32)
	driveSoak(t, ev, steps, 132, 3)
}

func TestSessionSoakRandTopo100(t *testing.T) {
	steps := 100
	if testing.Short() {
		steps = 20
	}
	ev := sessionTestEvaluator(t, topogen.RandKind, 100, 500, 33)
	driveSoak(t, ev, steps, 133, 4)
}
