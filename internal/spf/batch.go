package spf

// Incremental SPF repair in the style of Ramalingam–Reps: after a set of
// simultaneous link changes — one weight move, one flip, an SRLG trip, a
// maintenance window, a correlated restoration — update one
// destination's cached reverse SPF by recomputing only the vertices
// whose distance actually changes, instead of re-running Dijkstra from
// scratch. A single-link event is a batch of one.
//
// Invariants the repair maintains — the same three every consumer of a
// Run's outputs relies on:
//
//  1. dist[v] is the exact shortest distance from v to the destination
//     over alive links under the current weights (Inf if unreachable).
//  2. order lists exactly the reachable vertices in ascending distance.
//     Equal-distance vertices may appear in any relative order: weights
//     are >= 1, so no shortest-path DAG edge connects a distance tie,
//     and every downstream pass (the pull-based load accumulation, the
//     delay DPs) is a function of the distances alone. A repaired order
//     therefore yields bit-identical loads and delays to a fresh Run's
//     order even though the two orders may permute ties differently.
//  3. DAG membership is derived, never stored: link (u,v) is on the DAG
//     iff dist[u] == w(u,v) + dist[v] and the link is alive. Repairing
//     distances repairs membership for free.
//
// Each change gives a link's effective weight before and after
// (LinkChange), with Inf encoding "down". The batch is decomposed
// through an intermediate "mid" state in which every changed link
// carries max(OldEff, NewEff): going old -> mid only raises weights,
// going mid -> new only lowers them. At mid, a lowered link keeps its
// old weight (an epoch-marked per-link override) and a restored link
// stays dead (a second mark). Only a batch that both raises and lowers
// links records overrides; for any other batch, every single move or
// flip among them, the increase phase skips the lookups.
//
// Increase phase (old -> mid): distances can only grow, and only for
// vertices all of whose shortest paths crossed a raised link. A raised
// link that was not tight (dist[tail] != OldEff + dist[head]) carried no
// shortest path. Otherwise:
//
//   - Phase A identifies the affected set with a min-heap keyed by OLD
//     distance, seeded with the tail of every tight raised link. A
//     popped candidate is affected iff it has no alive tight out-link
//     (at mid weights) to an unaffected vertex; each newly affected
//     vertex enqueues its tight in-neighbors. Tight links strictly
//     decrease distance, so candidates pop in ascending old distance and
//     every vertex's smaller-distance tight successors have final
//     membership when it is tested — the property the one-pass test
//     depends on. A raised link never passes that test itself: old
//     distances obey dist[tail] <= dist[head] + OldEff < dist[head] +
//     midEff.
//   - Phase B sets the affected distances to Inf, computes each affected
//     vertex's best candidate through unaffected neighbors, and runs a
//     Dijkstra restricted to the affected set. Vertices left at Inf are
//     the ones the batch disconnected.
//
// Decrease phase (mid -> new): the only distances that can improve are
// those with a new shortest path through a lowered or restored link. A
// multi-source Dijkstra, seeded at the tail of every such link whose
// NewEff + dist[head] beats dist[tail], propagates the improvements
// through in-links under the true new weights and mask; composite
// improvements (a tail whose candidate drops further when another
// lowered link lowers its head) ride the ordinary relaxation loop.
// Visited vertices are exactly those whose distance drops.
//
// Each phase finishes by merging the changed vertices (collected in
// settle order, i.e. ascending new distance) into the untouched
// remainder of the old order — O(n) with a tiny constant, against the
// O((n+m) log n) Dijkstra it replaces — so invariants (1)-(3) hold at
// the mid state and again at the final state.
//
// Callers fall back to a full Run only where no pre-change snapshot
// exists (session Init and demand rebases); the repair itself degrades
// to a no-op when no change can move any distance.

import (
	"math"

	"repro/internal/graph"
)

// LinkChange is one link of a batch event: the link's effective weight
// before and after, with Inf encoding "down". A link that failed has
// NewEff == Inf; a link that came back has OldEff == Inf; a weight move
// on an alive link has both finite. Each link may appear at most once
// per batch.
type LinkChange struct {
	Link           int
	OldEff, NewEff int64
}

// RepairBatch updates the workspace's current SPF state (the last Run,
// or a Restored snapshot) for a set of simultaneous link changes. w and
// mask must already reflect the new weights and topology. It reports
// whether any distance changed; when it returns false, distances and
// order are untouched (DAG membership may still have changed, which is
// derived state).
func (ws *Workspace) RepairBatch(g *graph.Graph, w []int32, changes []LinkChange, mask *graph.Mask) bool {
	if g != ws.g {
		panic("spf: Workspace used with a graph other than the one it was created for")
	}
	m := met.Get()
	// Keep the changes that can move anything, and run the increase phase
	// only if a raised link was tight (carried a shortest path), which the
	// old distances decide here. The decrease phase tests its own seeds,
	// after the increase phase has moved the distances.
	kept := ws.kept[:0]
	inc, dec := false, false
	for _, c := range changes {
		switch {
		case c.NewEff > c.OldEff:
			if c.NewEff < Inf && !mask.LinkAlive(c.Link) {
				continue // weight move on a dead link: effectively Inf both sides
			}
			inc = inc || ws.tight(c)
		case c.NewEff < c.OldEff:
			if !mask.LinkAlive(c.Link) {
				continue // restored link whose endpoint is still down, or dead-link move
			}
			dec = true
		default:
			continue
		}
		kept = append(kept, c)
	}
	ws.kept = kept
	ws.stats.Batch++
	if m != nil {
		m.repairBatch.Inc()
		m.batchLinks.Observe(float64(len(kept)))
	}
	changed := false
	if inc {
		var bep int32 // 0: no mid-state overrides unless the batch also lowers links
		if dec {
			bep = ws.markMidState(kept)
		}
		if ws.batchIncrease(g, w, kept, mask, bep) {
			changed = true
			ws.stats.ChangedNodes += len(ws.affList)
			if m != nil {
				m.changedNodes.Observe(float64(len(ws.affList)))
			}
		}
	}
	if dec {
		if ws.batchDecrease(g, w, kept, mask) {
			changed = true
			ws.stats.ChangedNodes += len(ws.chgSorted)
			if m != nil {
				m.changedNodes.Observe(float64(len(ws.chgSorted)))
			}
		}
	}
	return changed
}

// tight reports whether the link of change c lay on the shortest-path
// DAG at its old weight under the current distances.
func (ws *Workspace) tight(c LinkChange) bool {
	dv := ws.dist[ws.lto[c.Link]]
	return dv < Inf && ws.dist[ws.lfrom[c.Link]] == dv+c.OldEff
}

// markMidState records the mid-state overrides of a batch that both
// raises and lowers links — a lowered link keeps its old weight and a
// restored link stays dead until the decrease phase — and returns the
// epoch they carry. kept holds the batch's effective changes.
func (ws *Workspace) markMidState(kept []LinkChange) int32 {
	bep := ws.nextBatchEpoch()
	for _, c := range kept {
		if c.NewEff >= c.OldEff {
			continue
		}
		if c.OldEff >= Inf {
			ws.batchUpMark[c.Link] = bep
		} else {
			ws.batchOld[c.Link] = c.OldEff
			ws.batchOldMark[c.Link] = bep
		}
	}
	return bep
}

// midAlive reports whether link lj is alive at the batch's mid state:
// alive in mask and not restored by this batch. bep is the mid-state
// epoch, 0 when the batch lowers nothing and no override exists to look
// up. The repair loops test it after the distance tests, which most
// links fail for two array reads against the mask's three.
func (ws *Workspace) midAlive(lj int32, mask *graph.Mask, bep int32) bool {
	return mask.LinkAlive(int(lj)) && (bep == 0 || ws.batchUpMark[lj] != bep)
}

// midW is link lj's effective weight at the batch's mid state: its old
// weight if the batch lowered it, else its weight in w.
func (ws *Workspace) midW(lj int32, w []int32, bep int32) int64 {
	if bep != 0 && ws.batchOldMark[lj] == bep {
		return ws.batchOld[lj]
	}
	return int64(w[lj])
}

// batchIncrease moves the distances from the old state to the mid state
// (every increased or failed link at its raised weight) with one
// multi-seeded increase repair over the effective changes kept. Under
// the mid-state overrides of epoch bep, decreased links read their old
// weight and restored links stay dead, so only raises are in effect.
func (ws *Workspace) batchIncrease(g *graph.Graph, w []int32, kept []LinkChange, mask *graph.Mask, bep int32) bool {
	// Phase A: identify the affected set in ascending old-distance order,
	// seeded with the tail of every tight increased link.
	epoch := ws.nextRepairEpoch()
	ws.heap = ws.heap[:0]
	ws.affList = ws.affList[:0]
	for _, c := range kept {
		if c.NewEff <= c.OldEff || !ws.tight(c) {
			continue // lowered, or it carried no shortest path
		}
		if tail := ws.lfrom[c.Link]; ws.qMark[tail] != epoch {
			ws.qMark[tail] = epoch
			ws.heapPush(heapEntry{ws.dist[tail], tail})
		}
	}
	for len(ws.heap) > 0 {
		e := ws.heapPop()
		x := e.node
		dx := ws.dist[x]
		hasAlt := false
		for _, lj := range g.OutLinks(int(x)) {
			z := ws.lto[lj]
			if ws.aMark[z] == epoch {
				continue
			}
			if dz := ws.dist[z]; dz < Inf && dx == dz+ws.midW(lj, w, bep) && ws.midAlive(lj, mask, bep) {
				hasAlt = true // a surviving tight out-link: distance holds
				break
			}
		}
		if hasAlt {
			continue
		}
		ws.aMark[x] = epoch
		ws.affList = append(ws.affList, x)
		for _, lj := range g.InLinks(int(x)) {
			y := ws.lfrom[lj]
			if ws.qMark[y] == epoch || ws.aMark[y] == epoch {
				continue
			}
			if dy := ws.dist[y]; dy < Inf && dy == dx+ws.midW(lj, w, bep) && ws.midAlive(lj, mask, bep) {
				ws.qMark[y] = epoch
				ws.heapPush(heapEntry{dy, y})
			}
		}
	}
	if len(ws.affList) == 0 {
		// Every seeded tail kept another tight out-link: ECMP membership
		// changes only, all distances intact.
		return false
	}

	// Phase B: recompute the affected set against the unaffected rim,
	// under mid weights and mid aliveness.
	for _, x := range ws.affList {
		ws.dist[x] = Inf
	}
	ws.heap = ws.heap[:0]
	for _, x := range ws.affList {
		best := Inf
		for _, lj := range g.OutLinks(int(x)) {
			dz := ws.dist[ws.lto[lj]] // affected neighbors sit at Inf and drop out
			if dz >= Inf || !ws.midAlive(lj, mask, bep) {
				continue
			}
			if c := dz + ws.midW(lj, w, bep); c < best {
				best = c
			}
		}
		ws.cand[x] = best
		if best < Inf {
			ws.heapPush(heapEntry{best, x})
		}
	}
	ws.chgSorted = ws.chgSorted[:0]
	for len(ws.heap) > 0 {
		e := ws.heapPop()
		x := e.node
		if ws.dist[x] < Inf || e.dist != ws.cand[x] {
			continue // settled or stale
		}
		ws.dist[x] = e.dist
		ws.chgSorted = append(ws.chgSorted, x)
		for _, lj := range g.InLinks(int(x)) {
			y := ws.lfrom[lj]
			if ws.aMark[y] != epoch || ws.dist[y] < Inf || !ws.midAlive(lj, mask, bep) {
				continue
			}
			if c := e.dist + ws.midW(lj, w, bep); c < ws.cand[y] {
				ws.cand[y] = c
				ws.heapPush(heapEntry{c, y})
			}
		}
	}
	// Affected vertices still at Inf were disconnected by the batch;
	// mergeOrder drops them from the settled order.
	ws.mergeOrder(epoch)
	return true
}

// batchDecrease moves the distances from the mid state to the new state
// with one multi-source seeded Dijkstra under the true new weights and
// mask: one seed per kept link whose new weight improves on its mid
// weight (weight decreases and restored links).
func (ws *Workspace) batchDecrease(g *graph.Graph, w []int32, kept []LinkChange, mask *graph.Mask) bool {
	var epoch int32 // taken at the first seed
	for _, c := range kept {
		if c.NewEff >= c.OldEff {
			continue
		}
		tail, head := ws.lfrom[c.Link], ws.lto[c.Link]
		dv := ws.dist[head]
		if dv >= Inf {
			continue
		}
		if nd := dv + c.NewEff; nd < ws.dist[tail] {
			if epoch == 0 {
				epoch = ws.nextRepairEpoch()
				ws.heap = ws.heap[:0]
				ws.chgSorted = ws.chgSorted[:0]
			}
			ws.dist[tail] = nd
			ws.aMark[tail] = epoch
			ws.heapPush(heapEntry{nd, tail})
		}
	}
	if epoch == 0 {
		return false // at best distance ties: membership-only changes
	}
	for len(ws.heap) > 0 {
		e := ws.heapPop()
		if e.dist != ws.dist[e.node] {
			continue // stale entry
		}
		ws.chgSorted = append(ws.chgSorted, e.node) // settles in ascending new distance
		for _, lj := range g.InLinks(int(e.node)) {
			y := ws.lfrom[lj]
			if nd2 := e.dist + int64(w[lj]); nd2 < ws.dist[y] && mask.LinkAlive(int(lj)) {
				ws.dist[y] = nd2
				ws.aMark[y] = epoch
				ws.heapPush(heapEntry{nd2, y})
			}
		}
	}
	ws.mergeOrder(epoch)
	return true
}

// nextRepairEpoch advances the node mark epoch, clearing the mark arrays
// on the (every ~2^31 phases) wraparound so stale marks from a previous
// cycle can never collide with the current epoch on a long-lived
// workspace.
func (ws *Workspace) nextRepairEpoch() int32 {
	if ws.repEpoch == math.MaxInt32 {
		clear(ws.aMark)
		clear(ws.qMark)
		ws.repEpoch = 0
	}
	ws.repEpoch++
	return ws.repEpoch
}

// nextBatchEpoch advances the per-link batch mark epoch, clearing the
// mark arrays on wraparound like nextRepairEpoch.
func (ws *Workspace) nextBatchEpoch() int32 {
	if ws.batchEpoch == math.MaxInt32 {
		clear(ws.batchOldMark)
		clear(ws.batchUpMark)
		ws.batchEpoch = 0
	}
	ws.batchEpoch++
	return ws.batchEpoch
}

// mergeOrder rebuilds the settled order after a repair phase: the old
// order minus the changed vertices (aMark == epoch) is still sorted by
// distance, as is chgSorted (settle order of the phase), so one merge
// pass restores invariant (2). Ties between changed and unchanged
// vertices may land either way; no consumer distinguishes them.
func (ws *Workspace) mergeOrder(epoch int32) {
	old := ws.order
	merged := ws.order2[:0]
	cs := ws.chgSorted
	ci := 0
	for _, v := range old {
		if ws.aMark[v] == epoch {
			continue // re-inserted from cs below, or dropped if now at Inf
		}
		dv := ws.dist[v]
		for ci < len(cs) && ws.dist[cs[ci]] <= dv {
			merged = append(merged, cs[ci])
			ci++
		}
		merged = append(merged, v)
	}
	merged = append(merged, cs[ci:]...)
	ws.order = merged
	ws.order2 = old[:0]
}

// RepairBatch applies a set of simultaneous link changes to this
// snapshot in place, using ws for scratch: Workspace.RepairBatch without
// the Restore/Save round trip. The snapshot's arrays are swapped into
// the workspace for the duration — no copying; the arrays just trade
// owners (the merged order may come from the workspace's scratch, which
// then inherits the snapshot's old array) — so the workspace's own
// last-Run outputs are preserved. w and mask must already reflect the
// new weights and topology. Reports whether any distance changed.
func (s *State) RepairBatch(ws *Workspace, g *graph.Graph, w []int32, changes []LinkChange, mask *graph.Mask) bool {
	ws.dist, s.Dist = s.Dist, ws.dist
	ws.order, s.Order = s.Order, ws.order
	ws.dest, s.Dest = s.Dest, ws.dest
	changed := ws.RepairBatch(g, w, changes, mask)
	ws.dist, s.Dist = s.Dist, ws.dist
	ws.order, s.Order = s.Order, ws.order
	ws.dest, s.Dest = s.Dest, ws.dest
	return changed
}
