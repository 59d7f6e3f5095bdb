package spf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/topogen"
)

// linkMove, linkDown and linkUp are the one-change batches of a weight
// move, a link failure and a link restoration (at weight w).
func linkMove(li int, oldW, newW int32) []LinkChange {
	return []LinkChange{{Link: li, OldEff: int64(oldW), NewEff: int64(newW)}}
}

func linkDown(li int, w int32) []LinkChange {
	return []LinkChange{{Link: li, OldEff: int64(w), NewEff: Inf}}
}

func linkUp(li int, w int32) []LinkChange {
	return []LinkChange{{Link: li, OldEff: Inf, NewEff: int64(w)}}
}

func TestRepairBatchDiamond(t *testing.T) {
	g := diamond()
	w := equalWeights(g, 1)
	m := graph.NewMask(g)
	ws := NewWorkspace(g)
	fresh := NewWorkspace(g)
	ws.Run(g, w, 3, m)

	// Fail both of node 0's out-links at once: node 0 disconnects in one
	// batch instead of two single repairs.
	m.FailLink(0)
	m.FailLink(2)
	if !ws.RepairBatch(g, w, []LinkChange{
		{Link: 0, OldEff: 1, NewEff: Inf},
		{Link: 2, OldEff: 1, NewEff: Inf},
	}, m) {
		t.Fatal("disconnecting batch reported no change")
	}
	fresh.Run(g, w, 3, m)
	requireSameSPF(t, "batch down", g, w, m, ws, fresh)
	if ws.Reached(0) {
		t.Fatal("node 0 should be unreachable")
	}

	// Restore both in one batch.
	m.ReviveLink(0)
	m.ReviveLink(2)
	if !ws.RepairBatch(g, w, []LinkChange{
		{Link: 0, OldEff: Inf, NewEff: 1},
		{Link: 2, OldEff: Inf, NewEff: 1},
	}, m) {
		t.Fatal("reconnecting batch reported no change")
	}
	fresh.Run(g, w, 3, m)
	requireSameSPF(t, "batch up", g, w, m, ws, fresh)

	// Raise both legs of the upper path.
	w[0] = 4
	w[4] = 7
	if !ws.RepairBatch(g, w, []LinkChange{
		{Link: 0, OldEff: 1, NewEff: 4},
		{Link: 4, OldEff: 1, NewEff: 7},
	}, m) {
		t.Fatal("raise batch reported no change")
	}
	fresh.Run(g, w, 3, m)
	requireSameSPF(t, "batch raise", g, w, m, ws, fresh)

	// Mixed batch: lower one upper leg while raising the lower path —
	// both phases of the mid-state decomposition fire in one call.
	w[0] = 2
	w[6] = 5
	if !ws.RepairBatch(g, w, []LinkChange{
		{Link: 0, OldEff: 4, NewEff: 2},
		{Link: 6, OldEff: 1, NewEff: 5},
	}, m) {
		t.Fatal("mixed batch reported no change")
	}
	fresh.Run(g, w, 3, m)
	requireSameSPF(t, "batch mixed", g, w, m, ws, fresh)

	// A batch of pure membership changes — failing one of node 0's two
	// equal tight out-links together with an off-DAG reverse link — must
	// not move any distance.
	w[0], w[4], w[6] = 1, 1, 1
	ws.Run(g, w, 3, m)
	m.FailLink(0)
	m.FailLink(1)
	if ws.RepairBatch(g, w, []LinkChange{
		{Link: 0, OldEff: 1, NewEff: Inf},
		{Link: 1, OldEff: 1, NewEff: Inf},
	}, m) {
		t.Fatal("membership-only batch must not change distances")
	}
	fresh.Run(g, w, 3, m)
	requireSameSPF(t, "batch ecmp", g, w, m, ws, fresh)
}

// TestRepairWeightDiamond walks one-change weight moves through every
// branch of the repair: a distance-changing increase and decrease, a
// decrease to a distance tie, an increase that leaves a surviving tight
// sibling, and a link that never leads to the destination.
func TestRepairWeightDiamond(t *testing.T) {
	g := diamond()
	w := equalWeights(g, 1)
	w[2] = 3 // 0->2 expensive: the upper path is node 0's unique shortest
	ws := NewWorkspace(g)
	fresh := NewWorkspace(g)
	ws.Run(g, w, 3, nil)

	// Increase the unique-path link 0->1 past the lower alternative:
	// node 0's distance grows from 2 to 4 (via 0->2).
	w[0] = 5
	if !ws.RepairBatch(g, w, linkMove(0, 1, 5), nil) {
		t.Fatal("increase on a unique-path link reported no change")
	}
	fresh.Run(g, w, 3, nil)
	requireSameSPF(t, "increase", g, w, nil, ws, fresh)

	// Decrease it back: restores the original distances.
	w[0] = 1
	if !ws.RepairBatch(g, w, linkMove(0, 5, 1), nil) {
		t.Fatal("decrease back reported no change")
	}
	fresh.Run(g, w, 3, nil)
	requireSameSPF(t, "decrease", g, w, nil, ws, fresh)

	// On the unit-weight diamond, increasing one of node 0's two tight
	// out-links is a membership-only change: distances provably hold.
	// First rejoin the lower path at a distance tie — also membership
	// only, the decrease side of the same coin.
	w[2] = 1
	if ws.RepairBatch(g, w, linkMove(2, 3, 1), nil) {
		t.Fatal("rejoining at a distance tie must not change distances")
	}
	fresh.Run(g, w, 3, nil)
	requireSameSPF(t, "tie restore", g, w, nil, ws, fresh)
	w[0] = 5
	if ws.RepairBatch(g, w, linkMove(0, 1, 5), nil) {
		t.Fatal("increase with a surviving tight sibling must not change distances")
	}
	fresh.Run(g, w, 3, nil)
	requireSameSPF(t, "ecmp leave", g, w, nil, ws, fresh)
	w[0] = 1

	// A reverse-direction link (3->1) never lies toward destination 3:
	// changing it is a no-op that must not touch anything.
	ws.Run(g, w, 3, nil)
	w[5] = 17
	if ws.RepairBatch(g, w, linkMove(5, 1, 17), nil) {
		t.Fatal("reverse-link change reported a distance change")
	}
	fresh.Run(g, w, 3, nil)
	requireSameSPF(t, "noop", g, w, nil, ws, fresh)
}

// TestRepairLinkToggleDiamond is the same walk with one-change flips:
// a membership-only failure, a disconnecting failure and a reconnecting
// restoration.
func TestRepairLinkToggleDiamond(t *testing.T) {
	g := diamond()
	w := equalWeights(g, 1)
	m := graph.NewMask(g)
	ws := NewWorkspace(g)
	fresh := NewWorkspace(g)
	ws.Run(g, w, 3, m)

	// Fail 0->1: node 0 reroutes via the lower path at the same distance
	// (ECMP membership change only), so distances hold.
	m.FailLink(0)
	if ws.RepairBatch(g, w, linkDown(0, w[0]), m) {
		t.Fatal("failing one of two equal paths must not change distances")
	}
	fresh.Run(g, w, 3, m)
	requireSameSPF(t, "down 0", g, w, m, ws, fresh)

	// Fail 0->2 too: node 0 becomes disconnected.
	m.FailLink(2)
	if !ws.RepairBatch(g, w, linkDown(2, w[2]), m) {
		t.Fatal("disconnecting failure reported no change")
	}
	fresh.Run(g, w, 3, m)
	requireSameSPF(t, "down 2", g, w, m, ws, fresh)
	if ws.Reached(0) {
		t.Fatal("node 0 should be unreachable")
	}

	// Restore 0->1: node 0 reconnects through node 1.
	m.ReviveLink(0)
	if !ws.RepairBatch(g, w, linkUp(0, w[0]), m) {
		t.Fatal("reconnecting restoration reported no change")
	}
	fresh.Run(g, w, 3, m)
	requireSameSPF(t, "up 0", g, w, m, ws, fresh)
}

// TestRepairEpochWraparound: when the node mark epoch wraps after ~2^31
// repair phases, stale marks from earlier cycles must not collide with
// the fresh epoch (the arrays are cleared on wrap).
func TestRepairEpochWraparound(t *testing.T) {
	g := diamond()
	w := equalWeights(g, 1)
	w[2] = 3 // 0->2 expensive: 0->1->3 is node 0's unique shortest path
	ws := NewWorkspace(g)
	fresh := NewWorkspace(g)
	ws.Run(g, w, 3, nil)

	// Poison the mark arrays with values the post-wrap epochs will take.
	ws.repEpoch = math.MaxInt32
	for i := range ws.aMark {
		ws.aMark[i] = 1
		ws.qMark[i] = 2
	}
	for step, newW := range []int32{7, 1, 12} {
		oldW := w[0]
		w[0] = newW
		ws.RepairBatch(g, w, linkMove(0, oldW, newW), nil)
		fresh.Run(g, w, 3, nil)
		requireSameSPF(t, "wrap step", g, w, nil, ws, fresh)
		if step == 0 && ws.repEpoch != 1 {
			t.Fatalf("epoch after wrap = %d, want 1", ws.repEpoch)
		}
	}
}

// TestRepairBatchEpochWraparound: the per-link mid-state marks are epoch
// cleared on wraparound like the node marks. Only batches that both
// raise and lower links take a mark epoch, so every step mixes the two.
func TestRepairBatchEpochWraparound(t *testing.T) {
	g := diamond()
	w := equalWeights(g, 2)
	m := graph.NewMask(g)
	ws := NewWorkspace(g)
	fresh := NewWorkspace(g)
	ws.Run(g, w, 3, m)

	ws.batchEpoch = math.MaxInt32
	for i := range ws.batchOldMark {
		ws.batchOldMark[i] = 1
		ws.batchUpMark[i] = 2
		ws.batchOld[i] = 999
	}
	for step := 0; step < 3; step++ {
		// Fail 0->1 while lowering 3->1, which leads away from destination
		// 3: the decrease phase moves nothing, so node 0's new distance
		// rests on the mid-state weights the increase phase read.
		m.FailLink(0)
		w[5] = 1
		ws.RepairBatch(g, w, []LinkChange{
			{Link: 0, OldEff: 2, NewEff: Inf},
			{Link: 5, OldEff: 2, NewEff: 1},
		}, m)
		fresh.Run(g, w, 3, m)
		requireSameSPF(t, "wrap down", g, w, m, ws, fresh)
		if step == 0 && ws.batchEpoch != 1 {
			t.Fatalf("batch epoch after wrap = %d, want 1", ws.batchEpoch)
		}
		// Restore 0->1 while raising 3->1 back.
		m.ReviveLink(0)
		w[5] = 2
		ws.RepairBatch(g, w, []LinkChange{
			{Link: 0, OldEff: Inf, NewEff: 2},
			{Link: 5, OldEff: 1, NewEff: 2},
		}, m)
		fresh.Run(g, w, 3, m)
		requireSameSPF(t, "wrap up", g, w, m, ws, fresh)
	}
}

// TestStateRepairPreservesWorkspace: the in-place State repair must not
// disturb the workspace's own last-Run outputs — sessions interleave the
// two freely.
func TestStateRepairPreservesWorkspace(t *testing.T) {
	g := diamond()
	w := equalWeights(g, 1)
	ws := NewWorkspace(g)

	ws.Run(g, w, 3, nil)
	var st State
	ws.Save(&st)

	ws.Run(g, w, 0, nil) // workspace now holds destination 0
	wantDist := append([]int64(nil), ws.dist...)
	wantOrder := append([]int32(nil), ws.order...)

	// Increase 1->3, node 1's only tight out-link toward destination 3:
	// its distance moves from 1 to 3 (rerouting 1->0->2->3).
	w[4] = 6
	if !st.RepairBatch(ws, g, w, linkMove(4, 1, 6), nil) {
		t.Fatal("repair reported no change")
	}
	for v := range wantDist {
		if ws.dist[v] != wantDist[v] {
			t.Fatalf("workspace dist[%d] clobbered: %d != %d", v, ws.dist[v], wantDist[v])
		}
	}
	if len(ws.order) != len(wantOrder) {
		t.Fatalf("workspace order clobbered")
	}
	for i := range wantOrder {
		if ws.order[i] != wantOrder[i] {
			t.Fatalf("workspace order clobbered at %d", i)
		}
	}
	if ws.dest != 0 {
		t.Fatalf("workspace dest clobbered: %d", ws.dest)
	}

	fresh := NewWorkspace(g)
	fresh.Run(g, w, 3, nil)
	ws.Restore(&st)
	requireSameSPF(t, "state repair", g, w, nil, ws, fresh)
}

// requireSameSPF asserts the repaired workspace and a freshly-run one
// agree bit-for-bit on everything downstream consumers read: distances,
// a valid settled order, per-link load contributions, and both delay
// DPs. Orders may permute distance ties, which no consumer observes.
func requireSameSPF(t *testing.T, step string, g *graph.Graph, w []int32, mask *graph.Mask, repaired, fresh *Workspace) {
	t.Helper()
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		if repaired.dist[v] != fresh.dist[v] {
			t.Fatalf("%s: dist[%d] = %d, fresh %d", step, v, repaired.dist[v], fresh.dist[v])
		}
	}
	if len(repaired.order) != len(fresh.order) {
		t.Fatalf("%s: order length %d, fresh %d", step, len(repaired.order), len(fresh.order))
	}
	seen := make(map[int32]bool, len(repaired.order))
	for i, v := range repaired.order {
		if seen[v] {
			t.Fatalf("%s: node %d appears twice in repaired order", step, v)
		}
		seen[v] = true
		if repaired.dist[v] >= Inf {
			t.Fatalf("%s: unreachable node %d in repaired order", step, v)
		}
		if i > 0 && repaired.dist[v] < repaired.dist[repaired.order[i-1]] {
			t.Fatalf("%s: repaired order not ascending at position %d", step, i)
		}
	}
	for _, v := range fresh.order {
		if !seen[v] {
			t.Fatalf("%s: reachable node %d missing from repaired order", step, v)
		}
	}

	dem := make([]float64, n)
	for v := range dem {
		dem[v] = float64(v%7) + 0.25
	}
	lr := make([]float64, g.NumLinks())
	lf := make([]float64, g.NumLinks())
	dropR := repaired.AccumulateLoadsInto(g, w, dem, mask, lr)
	dropF := fresh.AccumulateLoadsInto(g, w, dem, mask, lf)
	if dropR != dropF {
		t.Fatalf("%s: dropped %g, fresh %g", step, dropR, dropF)
	}
	for li := range lr {
		if lr[li] != lf[li] {
			t.Fatalf("%s: load[%d] = %g, fresh %g", step, li, lr[li], lf[li])
		}
	}

	linkDelay := make([]float64, g.NumLinks())
	for li := range linkDelay {
		linkDelay[li] = float64(li%5) + 0.5
	}
	dr := make([]float64, n)
	df := make([]float64, n)
	repaired.WorstDelays(g, w, linkDelay, mask, dr)
	fresh.WorstDelays(g, w, linkDelay, mask, df)
	for v := range dr {
		if dr[v] != df[v] {
			t.Fatalf("%s: worst delay[%d] = %g, fresh %g", step, v, dr[v], df[v])
		}
	}
	repaired.MeanDelays(g, w, linkDelay, mask, dr)
	fresh.MeanDelays(g, w, linkDelay, mask, df)
	for v := range dr {
		if dr[v] != df[v] {
			t.Fatalf("%s: mean delay[%d] = %g, fresh %g", step, v, dr[v], df[v])
		}
	}
}

// randomBatch mutates w/mask/down with 1..maxK simultaneous link
// changes (toggles and weight moves on distinct links) and returns the
// batch describing them.
func randomBatch(r *rand.Rand, g *graph.Graph, w []int32, mask *graph.Mask, down []bool, maxK int) []LinkChange {
	m := g.NumLinks()
	k := 1 + r.Intn(maxK)
	used := make(map[int]bool, k)
	var changes []LinkChange
	for len(changes) < k {
		li := r.Intn(m)
		if used[li] {
			continue
		}
		used[li] = true
		switch {
		case down[li]:
			mask.ReviveLink(li)
			down[li] = false
			changes = append(changes, LinkChange{Link: li, OldEff: Inf, NewEff: int64(w[li])})
		case r.Float64() < 0.5:
			mask.FailLink(li)
			down[li] = true
			changes = append(changes, LinkChange{Link: li, OldEff: int64(w[li]), NewEff: Inf})
		default:
			oldW := w[li]
			newW := int32(1 + r.Intn(20))
			w[li] = newW
			changes = append(changes, LinkChange{Link: li, OldEff: int64(oldW), NewEff: int64(newW)})
		}
	}
	return changes
}

// invertBatch undoes randomBatch's changes on w/mask/down and returns
// the batch describing the undo.
func invertBatch(w []int32, mask *graph.Mask, down []bool, changes []LinkChange) []LinkChange {
	inv := make([]LinkChange, len(changes))
	for i, c := range changes {
		switch {
		case c.NewEff >= Inf:
			mask.ReviveLink(c.Link)
			down[c.Link] = false
		case c.OldEff >= Inf:
			mask.FailLink(c.Link)
			down[c.Link] = true
		default:
			w[c.Link] = int32(c.OldEff)
		}
		inv[i] = LinkChange{Link: c.Link, OldEff: c.NewEff, NewEff: c.OldEff}
	}
	return inv
}

// TestQuickRepairMatchesRun maintains one destination's SPF through a
// random sequence of one-change weight moves (with immediate reverts
// mixed in) purely by repair, comparing against a from-scratch run after
// every event.
func TestQuickRepairMatchesRun(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, w := randGraph(r)
		dest := r.Intn(g.NumNodes())
		ws := NewWorkspace(g)
		fresh := NewWorkspace(g)
		ws.Run(g, w, dest, nil)
		for step := 0; step < 40; step++ {
			li := r.Intn(g.NumLinks())
			oldW := w[li]
			newW := int32(1 + r.Intn(20))
			w[li] = newW
			ws.RepairBatch(g, w, linkMove(li, oldW, newW), nil)
			fresh.Run(g, w, dest, nil)
			for v := 0; v < g.NumNodes(); v++ {
				if ws.dist[v] != fresh.dist[v] {
					return false
				}
			}
			if r.Float64() < 0.4 {
				w[li] = oldW
				ws.RepairBatch(g, w, linkMove(li, newW, oldW), nil)
				fresh.Run(g, w, dest, nil)
				for v := 0; v < g.NumNodes(); v++ {
					if ws.dist[v] != fresh.dist[v] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickRepairTogglesMatchRun is the same with one-change link
// up/down events against a mask, the selector's telemetry shape.
func TestQuickRepairTogglesMatchRun(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, w := randGraph(r)
		dest := r.Intn(g.NumNodes())
		m := graph.NewMask(g)
		ws := NewWorkspace(g)
		fresh := NewWorkspace(g)
		ws.Run(g, w, dest, m)
		isDown := make([]bool, g.NumLinks())
		for step := 0; step < 40; step++ {
			li := r.Intn(g.NumLinks())
			if isDown[li] {
				m.ReviveLink(li)
				ws.RepairBatch(g, w, linkUp(li, w[li]), m)
			} else {
				m.FailLink(li)
				ws.RepairBatch(g, w, linkDown(li, w[li]), m)
			}
			isDown[li] = !isDown[li]
			fresh.Run(g, w, dest, m)
			for v := 0; v < g.NumNodes(); v++ {
				if ws.dist[v] != fresh.dist[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickRepairBatchMatchesRun maintains one destination's SPF
// through random multi-link batches purely by batch repair, comparing
// against a from-scratch run after every batch.
func TestQuickRepairBatchMatchesRun(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, w := randGraph(r)
		dest := r.Intn(g.NumNodes())
		mask := graph.NewMask(g)
		down := make([]bool, g.NumLinks())
		ws := NewWorkspace(g)
		fresh := NewWorkspace(g)
		ws.Run(g, w, dest, mask)
		for step := 0; step < 30; step++ {
			ws.RepairBatch(g, w, randomBatch(r, g, w, mask, down, 6), mask)
			fresh.Run(g, w, dest, mask)
			for v := 0; v < g.NumNodes(); v++ {
				if ws.dist[v] != fresh.dist[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// testRepairBatchEquivalence drives per-destination snapshots through
// random batches of 1..maxK link changes via State.RepairBatch,
// asserting full bit-identity with a from-scratch run after every batch.
// With maxK == 1 — the weight moves and flips of a local search or a
// telemetry stream — each change is followed by its inverse half the
// time, the Apply/Revert shape.
func testRepairBatchEquivalence(t *testing.T, g *graph.Graph, ndests, steps, maxK int, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	n, m := g.NumNodes(), g.NumLinks()
	w := make([]int32, m)
	for i := range w {
		w[i] = int32(1 + r.Intn(20))
	}
	mask := graph.NewMask(g)
	down := make([]bool, m)
	ws := NewWorkspace(g)
	fresh := NewWorkspace(g)

	dests := r.Perm(n)[:ndests]
	states := make([]State, ndests)
	for i, d := range dests {
		ws.Run(g, w, d, mask)
		ws.Save(&states[i])
	}
	repairAll := func(step string, changes []LinkChange) {
		t.Helper()
		for i := range states {
			states[i].RepairBatch(ws, g, w, changes, mask)
		}
		for i, d := range dests {
			fresh.Run(g, w, d, mask)
			ws.Restore(&states[i])
			requireSameSPF(t, step, g, w, mask, ws, fresh)
		}
	}

	for step := 0; step < steps; step++ {
		changes := randomBatch(r, g, w, mask, down, maxK)
		repairAll("batch", changes)
		if maxK == 1 && r.Float64() < 0.5 {
			repairAll("inverse", invertBatch(w, mask, down, changes))
		}
	}
}

func repairTestTopo(t *testing.T, kind topogen.Kind, nodes, links int, seed int64) *graph.Graph {
	t.Helper()
	g, err := topogen.Generate(topogen.Spec{Kind: kind, Nodes: nodes, DirectedLinks: links}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRepairEquivalenceRand8(t *testing.T) {
	g := repairTestTopo(t, topogen.RandKind, 8, 40, 1)
	testRepairBatchEquivalence(t, g, 8, 150, 1, 11)
}

func TestRepairEquivalenceISP16(t *testing.T) {
	g := repairTestTopo(t, topogen.ISPKind, 0, 0, 2)
	testRepairBatchEquivalence(t, g, 8, 100, 1, 12)
}

func TestRepairEquivalenceRandTopo100(t *testing.T) {
	steps := 60
	if testing.Short() {
		steps = 15
	}
	g := repairTestTopo(t, topogen.RandKind, 100, 500, 3)
	testRepairBatchEquivalence(t, g, 5, steps, 1, 13)
}

func TestRepairBatchEquivalenceRand8(t *testing.T) {
	g := repairTestTopo(t, topogen.RandKind, 8, 40, 4)
	testRepairBatchEquivalence(t, g, 8, 80, 8, 21)
}

func TestRepairBatchEquivalenceISP16(t *testing.T) {
	g := repairTestTopo(t, topogen.ISPKind, 0, 0, 5)
	testRepairBatchEquivalence(t, g, 8, 60, 8, 22)
}

func TestRepairBatchEquivalenceRandTopo100(t *testing.T) {
	steps := 30
	if testing.Short() {
		steps = 8
	}
	g := repairTestTopo(t, topogen.RandKind, 100, 500, 6)
	testRepairBatchEquivalence(t, g, 5, steps, 12, 23)
}

// TestRepairBatchSRLG: an 8-link shared-risk group trips and later
// recovers as two batches, the workload multi-link batches exist for.
func TestRepairBatchSRLG(t *testing.T) {
	g := repairTestTopo(t, topogen.RandKind, 100, 500, 7)
	r := rand.New(rand.NewSource(31))
	w := make([]int32, g.NumLinks())
	for i := range w {
		w[i] = int32(1 + r.Intn(20))
	}
	mask := graph.NewMask(g)
	ws := NewWorkspace(g)
	fresh := NewWorkspace(g)

	group := r.Perm(g.NumLinks())[:8]
	for round := 0; round < 5; round++ {
		dest := r.Intn(g.NumNodes())
		ws.Run(g, w, dest, mask)

		var trip, restore []LinkChange
		for _, li := range group {
			mask.FailLink(li)
			trip = append(trip, LinkChange{Link: li, OldEff: int64(w[li]), NewEff: Inf})
			restore = append(restore, LinkChange{Link: li, OldEff: Inf, NewEff: int64(w[li])})
		}
		ws.RepairBatch(g, w, trip, mask)
		fresh.Run(g, w, dest, mask)
		requireSameSPF(t, "srlg trip", g, w, mask, ws, fresh)

		for _, li := range group {
			mask.ReviveLink(li)
		}
		ws.RepairBatch(g, w, restore, mask)
		fresh.Run(g, w, dest, mask)
		requireSameSPF(t, "srlg restore", g, w, mask, ws, fresh)
	}
}
