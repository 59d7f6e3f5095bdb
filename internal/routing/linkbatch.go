package routing

// Link changes: the one path both link updates take. A weight move
// (Apply) and a set of simultaneous link flips (SetLinkStates: one flap,
// an SRLG trip, a maintenance window, a correlated restoration) each
// describe their change as one spf.LinkChange batch per class: a link's
// effective weight before and after, a flip being the infinite-weight
// limit. classify sorts the destinations by that batch once, and
// spf.RepairBatch applies it to every destination whose distances can
// move: one multi-link Ramalingam–Reps pass per affected destination,
// instead of one classify/repair/re-sum round per link. A single move or
// flip is a batch of one.
//
// The per-destination classification runs against the pre-change
// snapshots, weights and mask:
//
//   - A lowered or restored link (u,v) matters only where NewEff +
//     dist(v) ties (joins the DAG; distances provably unchanged) or
//     strictly beats (repair) the cached dist(u). If none strictly
//     beats it, no distance can improve: on any new shortest path, the
//     suffix after the last lowered arc (x,y) uses no lowered arc, so it
//     costs at least the old dist(y), and the arc cannot beat the old
//     dist(x).
//   - A raised or failed link matters only if it was tight (on the
//     DAG). Distances survive iff every tight raised link's tail keeps
//     at least one original tight out-link the batch does not raise (the
//     per-class raised marks). Links joining the DAG in the same batch
//     do not count: that keeps the test conservative — and exact,
//     because if no lowered link strictly improves, distances cannot
//     decrease, and the minimal-old-distance vertex whose distance grows
//     would have to be a tail that lost all surviving tight out-links,
//     which the test flags.
//   - A weight move on a link that is down, or on a class whose weight
//     it leaves unchanged, touches nothing.
//
// Everything downstream — load re-summation, linkPass, the Λ ripple —
// is the ordinary recompute tail, so results stay bit-identical to a
// from-scratch evaluation, and a flip batch to applying its flips one
// batch of one at a time (in any order). Unlike a weight move, a flip
// batch re-runs the per-link aggregate pass even with no affected
// destinations: link aliveness itself feeds the utilization summary.

import (
	"repro/internal/graph"
	"repro/internal/spf"
)

// LinkStateChange is one link flip of a topology event.
type LinkStateChange struct {
	Link int
	Up   bool
}

// SetLinkStates marks the listed directed links down (Up false) or
// restores them (Up true) as one simultaneous change, incrementally
// re-evaluates the session under the new failure state, and returns the
// new Result — the topology half of an online telemetry stream (the
// other half, demand updates, is SetDemands and ApplyDemandDelta).
// Repeated links resolve last-wins; flips already in the desired state
// are ignored, and a batch with no effective flip is a pure no-op that
// keeps any pending undo. A batch with an effective flip commits the
// previous Apply or batch and becomes the revertible update itself:
// Revert re-flips its links and restores the stashed caches, like an
// Apply's. Results are bit-identical to a from-scratch evaluation under
// the updated mask, and so to applying the effective flips one at a
// time.
func (s *Session) SetLinkStates(changes []LinkStateChange) Result {
	if !s.inited {
		panic("routing: Session.SetLinkStates before Init")
	}
	if m := met.Get(); m != nil {
		m.updLink.Inc()
	}
	g := s.e.g
	if s.mask == nil {
		anyDown := false
		for _, c := range changes {
			if !c.Up {
				anyDown = true
				break
			}
		}
		if !anyDown {
			return s.res // an absent mask means everything is already up
		}
		s.mask = graph.NewMask(g)
	}

	// Last-wins dedup of repeated links, dropping flips that restate the
	// current state.
	s.markEpoch++
	s.lsChanges = s.lsChanges[:0]
	for i := len(changes) - 1; i >= 0; i-- {
		c := changes[i]
		if s.linkMark[c.Link] == s.markEpoch {
			continue
		}
		s.linkMark[c.Link] = s.markEpoch
		if c.Up == !s.mask.LinkFailed(c.Link) {
			continue
		}
		s.lsChanges = append(s.lsChanges, c)
	}
	if m := met.Get(); m != nil {
		m.batchLinks.Observe(float64(len(s.lsChanges)))
	}
	if len(s.lsChanges) == 0 {
		return s.res
	}
	s.recycleUndo()
	s.canRevert = true
	u := &s.undo
	u.flips = append(u.flips, s.lsChanges...)

	// Flips of links with a dead endpoint change nothing observable;
	// commit them silently and drop them from the batch (Revert still
	// re-flips them from u.flips).
	eff := s.lsChanges[:0]
	for _, c := range s.lsChanges {
		if !s.mask.NodeAlive(int(s.linkFrom[c.Link])) || !s.mask.NodeAlive(int(s.linkTo[c.Link])) {
			if c.Up {
				s.mask.ReviveLink(c.Link)
			} else {
				s.mask.FailLink(c.Link)
			}
			continue
		}
		eff = append(eff, c)
	}
	s.lsChanges = eff
	u.noop = len(s.lsChanges) == 0
	if u.noop {
		return s.res
	}

	sp := s.beginUpdateSpan("session.link")
	sp.SetAttr("links", int64(len(s.lsChanges)))
	if len(s.lsChanges) == 1 {
		sp.SetAttr("link", int64(s.lsChanges[0].Link))
		if s.lsChanges[0].Up {
			sp.SetAttr("up", 1)
		}
	}

	// Describe the flips in each class's weights, classify them against
	// the pre-flip snapshots, then commit them.
	csp := sp.Child("session.classify")
	s.batchD, s.batchT = s.batchD[:0], s.batchT[:0]
	for _, c := range s.lsChanges {
		s.batchD = append(s.batchD, flipChange(c, s.w.Delay[c.Link]))
		s.batchT = append(s.batchT, flipChange(c, s.w.Throughput[c.Link]))
	}
	s.classify()
	for _, c := range s.lsChanges {
		if c.Up {
			s.mask.ReviveLink(c.Link)
		} else {
			s.mask.FailLink(c.Link)
		}
	}
	csp.End()

	u.res = s.res
	u.droppedT = s.droppedT
	s.recompute(u)
	s.endUpdateSpan(sp)
	return s.res
}

// flipChange describes flip c in one class's effective weights, where
// the link weighs w: a restored link comes back from Inf, a failed one
// goes to it.
func flipChange(c LinkStateChange, w int32) spf.LinkChange {
	if c.Up {
		return spf.LinkChange{Link: c.Link, OldEff: spf.Inf, NewEff: int64(w)}
	}
	return spf.LinkChange{Link: c.Link, OldEff: int64(w), NewEff: spf.Inf}
}

// How a pending link change touches one destination's cache in one
// class.
const (
	affectNone    = iota // distances and DAG both provably unchanged
	affectDAGOnly        // distances unchanged; ECMP membership toggles
	affectFull           // distances can change: SPF repair required
)

// classify sorts every alive destination by how the pending link change
// (s.batchD, s.batchT) touches each class's cache: s.affD/s.affT need
// an SPF repair, s.dagD/s.dagT only a DAG and load refresh, the rest
// nothing. The change must not be committed yet: the snapshots,
// weights and mask are all read as they were before it. Entries that
// touch nothing are dropped from the batches first, so the region-1
// repairs see only effective changes.
func (s *Session) classify() {
	if s.raiseEpoch == int32(1<<31-1) {
		clear(s.raisedD)
		clear(s.raisedT)
		s.raiseEpoch = 0
	}
	s.raiseEpoch++
	s.batchD = s.effectiveChanges(s.batchD, s.raisedD)
	s.batchT = s.effectiveChanges(s.batchT, s.raisedT)
	s.affD, s.dagD = s.affD[:0], s.dagD[:0]
	s.affT, s.dagT = s.affT[:0], s.dagT[:0]
	n := s.e.g.NumNodes()
	for t := 0; t < n; t++ {
		if !s.alive(t) {
			continue
		}
		dc := &s.dDest[t]
		switch s.classifyDest(dc.state.Dist, s.w.Delay, s.batchD, s.raisedD, dc) {
		case affectFull:
			s.affD = append(s.affD, t)
		case affectDAGOnly:
			s.dagD = append(s.dagD, t)
		}
		switch s.classifyDest(s.tStates[t].Dist, s.w.Throughput, s.batchT, s.raisedT, nil) {
		case affectFull:
			s.affT = append(s.affT, t)
		case affectDAGOnly:
			s.dagT = append(s.dagT, t)
		}
	}
}

// effectiveChanges compacts one class's batch in place to the changes
// that can touch anything — dropping unchanged weights and weight moves
// on links that are down, which carry nothing either side — and marks
// the links it raises (weight increases and failures) in raised.
func (s *Session) effectiveChanges(batch []spf.LinkChange, raised []int32) []spf.LinkChange {
	out := batch[:0]
	for _, c := range batch {
		if c.OldEff == c.NewEff || c.OldEff < spf.Inf && c.NewEff < spf.Inf && !s.mask.LinkAlive(c.Link) {
			continue
		}
		if c.NewEff > c.OldEff {
			raised[c.Link] = s.raiseEpoch
		}
		out = append(out, c)
	}
	return out
}

// classifyDest classifies one class's batch for one destination with
// pre-change distances dist under the class's weights w and raised
// marks: affectFull as soon as a lowered or restored link strictly
// improves on its tail's distance or a tight raised link strands its
// tail, affectDAGOnly if only memberships toggle, affectNone otherwise.
// dc is the destination's delay-class cache, whose DAG adjacency lists
// exactly a tail's tight alive out-links; the throughput class passes
// nil and scans the tail's out-links instead.
func (s *Session) classifyDest(dist []int64, w []int32, batch []spf.LinkChange, raised []int32, dc *delayDest) int {
	out := affectNone
	for _, c := range batch {
		li := c.Link
		dv := dist[s.linkTo[li]]
		if dv >= spf.Inf {
			continue // the link can never lead to this destination
		}
		du := dist[s.linkFrom[li]]
		if c.NewEff < c.OldEff {
			switch nd := dv + c.NewEff; {
			case nd < du:
				return affectFull // strictly shorter: distances change
			case nd == du:
				out = affectDAGOnly // joins the DAG at a distance tie
			}
			continue
		}
		if du != dv+c.OldEff {
			continue // off the DAG: it carried nothing
		}
		// Tight raised link: the tail must keep an original tight
		// out-link that the batch does not raise.
		if !s.keepsTightOutLink(s.linkFrom[li], du, dist, w, raised, dc) {
			return affectFull
		}
		out = affectDAGOnly
	}
	return out
}

// keepsTightOutLink reports whether node u, at distance du, has a tight
// alive out-link not raised in this batch, before the change.
func (s *Session) keepsTightOutLink(u int32, du int64, dist []int64, w []int32, raised []int32, dc *delayDest) bool {
	if dc != nil {
		for _, lj := range dc.dagLinks[dc.dagOff[u]:dc.dagOff[u+1]] {
			if raised[lj] != s.raiseEpoch {
				return true
			}
		}
		return false
	}
	for _, lj := range s.e.g.OutLinks(int(u)) {
		if raised[lj] == s.raiseEpoch || !s.mask.LinkAlive(int(lj)) {
			continue
		}
		if dv := dist[s.linkTo[lj]]; dv < spf.Inf && du == dv+int64(w[lj]) {
			return true
		}
	}
	return false
}
