package routing

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/spf"
	"repro/internal/topogen"
	"repro/internal/traffic"
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
	ns := ev.NewSession(nodeDownMask(g, v), v)
	nref := nodeDownMask(g, v)
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

// TestSetLinkStatesRevert pins the link-batch undo: after every batch —
// single flips, both-direction pairs, SRLG-sized groups, dead-endpoint
// flips under a node-failure mask, batches right after a committed
// Apply — Revert must restore the pre-batch Result, the Mask() link
// states, and a session whose next Apply or SetLinkStates still matches
// Evaluator.EvaluateDemands bit for bit. A restating batch is a pure
// no-op and keeps a pending Apply undo.
func TestSetLinkStatesRevert(t *testing.T) {
	cases := []struct {
		name         string
		kind         topogen.Kind
		nodes, links int
		seed         int64
		steps        int
	}{
		{"rand8", topogen.RandKind, 8, 40, 81, 200},
		{"isp16", topogen.ISPKind, 0, 0, 82, 120},
		{"rand100", topogen.RandKind, 100, 500, 83, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			steps := tc.steps
			if testing.Short() {
				steps /= 4
			}
			ev := sessionTestEvaluator(t, tc.kind, tc.nodes, tc.links, tc.seed)
			driveLinkRevert(t, ev, -1, steps, tc.seed+100)
			driveLinkRevert(t, ev, 1, steps, tc.seed+200)
		})
	}

	// A nil-mask session acquires a mask on its first failure; Revert
	// brings it back to all links up and the normal-conditions bits.
	ev := sessionTestEvaluator(t, topogen.RandKind, 8, 40, 84)
	w := RandomWeightSetting(ev.Graph().NumLinks(), 20, rand.New(rand.NewSource(85)))
	s := ev.NewSession(nil, -1)
	before := s.Init(w)
	s.SetLinkStates([]LinkStateChange{{Link: 2, Up: false}, {Link: 5, Up: false}})
	s.Revert()
	requireSameResult(t, "nil-mask revert", s.Result(), before)
	if s.Mask().AnyFailure() {
		t.Fatal("nil-mask revert left a link down")
	}
}

// driveLinkRevert runs seeded SetLinkStates→Revert rounds on one
// session: the normal scenario for skipNode -1, otherwise skipNode's
// node-failure scenario, whose incident links are dead-endpoint flips.
// Every round commits one more Apply or batch, so the reverted batches
// land on changing weights and masks.
func driveLinkRevert(t *testing.T, ev *Evaluator, skipNode, steps int, seed int64) {
	t.Helper()
	g := ev.Graph()
	m := g.NumLinks()
	rng := rand.New(rand.NewSource(seed))
	w := RandomWeightSetting(m, 20, rng)
	ref := graph.NewMask(g) // the committed scenario
	nxt := graph.NewMask(g) // ref with the batch under test applied
	var s *Session
	if skipNode >= 0 {
		s = ev.NewSession(nodeDownMask(g, skipNode), skipNode)
		ref.FailNode(skipNode)
		nxt.FailNode(skipNode)
	} else {
		s = ev.NewSession(graph.NewMask(g), -1)
	}
	var incident []int
	for li := 0; li < m; li++ {
		if l := g.Link(li); int(l.From) == skipNode || int(l.To) == skipNode {
			incident = append(incident, li)
		}
	}
	var want Result
	check := func(step string, mask *graph.Mask, got Result) {
		t.Helper()
		ev.EvaluateDemands(w, mask, skipNode, nil, nil, &want)
		requireSameResult(t, step, got, want)
	}
	mirror := func(mask *graph.Mask, chg []LinkStateChange) {
		for _, c := range chg {
			if c.Up {
				mask.ReviveLink(c.Link)
			} else {
				mask.FailLink(c.Link)
			}
		}
	}
	randomBatch := func(k int) []LinkStateChange {
		chg := make([]LinkStateChange, 0, k)
		for j := 0; j < k; j++ {
			chg = append(chg, LinkStateChange{Link: rng.Intn(m), Up: rng.Intn(2) == 0})
		}
		return chg
	}
	move := func() {
		l := rng.Intn(m)
		wd, wt := int32(1+rng.Intn(20)), int32(1+rng.Intn(20))
		w.Set(l, wd, wt)
		check("apply", ref, s.Apply(l, wd, wt))
	}

	check("init", ref, s.Init(w))
	for i := 0; i < steps; i++ {
		var chg []LinkStateChange
		switch shape := rng.Intn(6); shape {
		case 0: // a single flip
			li := rng.Intn(m)
			chg = []LinkStateChange{{Link: li, Up: ref.LinkFailed(li)}}
		case 1: // both directions of one physical link
			li := rng.Intn(m)
			up := rng.Intn(2) == 0
			chg = []LinkStateChange{{Link: li, Up: up}}
			if r := g.Link(li).Reverse; r >= 0 {
				chg = append(chg, LinkStateChange{Link: r, Up: up})
			}
		case 2: // an SRLG-sized group tripping or healing together
			up := rng.Intn(2) == 0
			for _, li := range rng.Perm(m)[:min(8, m)] {
				chg = append(chg, LinkStateChange{Link: li, Up: up})
			}
		case 3: // dead-endpoint flips, alone or with ordinary flips
			if len(incident) == 0 {
				chg = randomBatch(1 + rng.Intn(10))
				break
			}
			for j := 0; j < 1+rng.Intn(3); j++ {
				chg = append(chg, LinkStateChange{Link: incident[rng.Intn(len(incident))], Up: rng.Intn(2) == 0})
			}
			chg = append(chg, randomBatch(rng.Intn(3))...)
		case 4: // right after a committed Apply
			move()
			chg = randomBatch(1 + rng.Intn(10))
		default: // a random batch with repeats and restating entries
			chg = randomBatch(1 + rng.Intn(10))
		}

		for li := 0; li < m; li++ {
			if ref.LinkFailed(li) {
				nxt.FailLink(li)
			} else {
				nxt.ReviveLink(li)
			}
		}
		mirror(nxt, chg)
		effective := false
		for li := 0; li < m && !effective; li++ {
			effective = nxt.LinkFailed(li) != ref.LinkFailed(li)
		}
		if !effective {
			// Only restating entries: add a toggle so the batch has an
			// update to revert (pure no-op batches are checked below).
			li := rng.Intn(m)
			toggle := LinkStateChange{Link: li, Up: ref.LinkFailed(li)}
			chg = append(chg, toggle)
			mirror(nxt, []LinkStateChange{toggle})
		}
		check("batch", nxt, s.SetLinkStates(chg))
		s.Revert()
		check("revert", ref, s.Result())
		for li := 0; li < m; li++ {
			if s.Mask().LinkFailed(li) != ref.LinkFailed(li) {
				t.Fatalf("step %d: link %d failed=%v after Revert, want %v", i, li, s.Mask().LinkFailed(li), ref.LinkFailed(li))
			}
		}

		// A restating batch keeps a pending Apply undo.
		if rng.Intn(4) == 0 {
			before := s.Result()
			l := rng.Intn(m)
			wd, wt := int32(1+rng.Intn(20)), int32(1+rng.Intn(20))
			prevD, prevT := w.Set(l, wd, wt)
			applied := s.Apply(l, wd, wt)
			li := rng.Intn(m)
			requireSameResult(t, "restating batch", s.SetLinkStates([]LinkStateChange{{Link: li, Up: !ref.LinkFailed(li)}}), applied)
			w.Set(l, prevD, prevT)
			s.Revert()
			requireSameResult(t, "revert through restating batch", s.Result(), before)
		}

		// The next update lands on the restored caches.
		if rng.Intn(2) == 0 {
			move()
		} else {
			chg = randomBatch(1 + rng.Intn(4))
			mirror(ref, chg)
			check("next batch", ref, s.SetLinkStates(chg))
		}
	}
}

// TestQuickUnaffectedMeansIdentical is the soundness property the
// incremental engine rests on, checked on the session's one classifier
// for one-change weight moves (on any link, down ones included) and for
// flip batches: a destination it leaves untouched keeps bit-identical
// distances and load contribution under a fresh run of the changed
// scenario, and a DAG-only destination keeps bit-identical distances.
func TestQuickUnaffectedMeansIdentical(t *testing.T) {
	evs := []*Evaluator{
		sessionTestEvaluator(t, topogen.RandKind, 8, 40, 91),
		sessionTestEvaluator(t, topogen.RandKind, 12, 60, 92),
		sessionTestEvaluator(t, topogen.ISPKind, 0, 0, 93),
	}
	var untouched, dagOnly int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ev := evs[rng.Intn(len(evs))]
		g := ev.Graph()
		n, m := g.NumNodes(), g.NumLinks()
		w := RandomWeightSetting(m, 20, rng)
		before, after := graph.NewMask(g), graph.NewMask(g)
		for k := rng.Intn(4); k > 0; k-- {
			li := rng.Intn(m)
			before.FailLink(li)
			after.FailLink(li)
		}
		s := ev.NewSession(before, -1)
		s.Init(w)

		// Describe the change as the session would and classify it
		// against the unchanged session; w2 and after are the changed
		// scenario.
		w2 := w.Clone()
		s.batchD, s.batchT = s.batchD[:0], s.batchT[:0]
		if rng.Intn(2) == 0 {
			l := rng.Intn(m)
			wd, wt := int32(1+rng.Intn(20)), int32(1+rng.Intn(20))
			s.batchD = append(s.batchD, spf.LinkChange{Link: l, OldEff: int64(w.Delay[l]), NewEff: int64(wd)})
			s.batchT = append(s.batchT, spf.LinkChange{Link: l, OldEff: int64(w.Throughput[l]), NewEff: int64(wt)})
			w2.Set(l, wd, wt)
		} else {
			for _, li := range rng.Perm(m)[:1+rng.Intn(4)] {
				c := LinkStateChange{Link: li, Up: before.LinkFailed(li)}
				s.batchD = append(s.batchD, flipChange(c, w.Delay[li]))
				s.batchT = append(s.batchT, flipChange(c, w.Throughput[li]))
				if c.Up {
					after.ReviveLink(li)
				} else {
					after.FailLink(li)
				}
			}
		}
		s.classify()

		ws := spf.NewWorkspace(g)
		col := make([]float64, n)
		contrib := make([]float64, m)
		// sound checks one class for destination t: wc and dem are the
		// class's changed weights and demands, st and cached the
		// session's snapshot and load contribution.
		sound := func(t int, wc []int32, dem *traffic.Matrix, st *spf.State, cached []float64, aff, dag []int) bool {
			if slices.Contains(aff, t) {
				return true // repaired: nothing is claimed
			}
			ws.Run(g, wc, t, after)
			for v := 0; v < n; v++ {
				if ws.Dist(v) != st.Dist[v] {
					return false
				}
			}
			if slices.Contains(dag, t) {
				dagOnly++
				return true // only the distances are claimed
			}
			untouched++
			demandColumn(dem, t, -1, col)
			ws.AccumulateLoadsInto(g, wc, col, after, contrib)
			return slices.Equal(contrib, cached)
		}
		for t := 0; t < n; t++ {
			if !sound(t, w2.Delay, s.demD, &s.dDest[t].state, s.dContrib[t], s.affD, s.dagD) ||
				!sound(t, w2.Throughput, s.demT, &s.tStates[t], s.tContrib[t], s.affT, s.dagT) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if untouched == 0 || dagOnly == 0 {
		t.Fatalf("vacuous run: %d untouched and %d DAG-only destinations checked", untouched, dagOnly)
	}
	t.Logf("checked %d untouched and %d DAG-only destination classes", untouched, dagOnly)
}
