package routing

// Link events: a set of simultaneous link flips (one flap, an SRLG trip,
// a maintenance window, a correlated restoration) classified once per
// destination and repaired with one multi-link Ramalingam–Reps pass
// (spf.RepairBatch) per affected destination, instead of one full
// classify/repair/re-sum round per link. A single flip is a batch of
// one.
//
// The per-destination classification takes the weight-move tests to
// their infinite-weight limits, evaluated against the pre-batch
// snapshots:
//
//   - A restored link (u,v) matters only where w + dist(v) ties (joins
//     the DAG; distances provably unchanged) or strictly beats (fresh
//     repair) the cached dist(u). If every restored link's head is
//     unreachable, no distance can improve: any new path's last restored
//     arc (x,y) would need a finite old dist(y) to reach the
//     destination.
//   - A failed link matters only if it was tight (on the DAG). Distances
//     survive iff every tight failed link's tail keeps at least one
//     original tight out-link that survives the batch (alive before, not
//     failing now). Links joining the DAG in the same batch do not
//     count: that keeps the test conservative — and exact, because if no
//     restored link strictly improves, distances cannot decrease, and
//     the minimal-old-distance affected vertex would have to be a tail
//     that lost all surviving tight out-links, which the test flags.
//
// Everything downstream — load re-summation, linkPass, the Λ ripple —
// is the ordinary recompute tail, so results stay bit-identical to
// applying the flips one batch of one at a time (in any order). Unlike
// a weight move, the per-link aggregate pass re-runs even with no
// affected destinations: link aliveness itself feeds the utilization
// summary.

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
// are ignored, and a batch with no effective flip is a pure no-op. An
// effective change commits immediately: any pending Apply undo is
// cleared and the batch cannot itself be reverted. Results are
// bit-identical to a from-scratch evaluation under the updated mask,
// and so to applying the effective flips one at a time.
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
	s.canRevert = false
	s.undo.noop = false

	// Flips of links with a dead endpoint change nothing observable;
	// commit them silently and drop them from the batch.
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
	if len(s.lsChanges) == 0 {
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

	// Mark the batch's failing links so the classifiers can test whether
	// a tight out-link survives the batch.
	if s.lsEpoch == int32(1<<31-1) {
		clear(s.lsMark)
		s.lsEpoch = 0
	}
	s.lsEpoch++
	for _, c := range s.lsChanges {
		if !c.Up {
			s.lsMark[c.Link] = s.lsEpoch
		}
	}

	// Classify against the pre-flip snapshots, then commit the flips and
	// describe the batch in each class's weights for the repairs.
	csp := sp.Child("session.classify")
	n := g.NumNodes()
	s.affD, s.dagD = s.affD[:0], s.dagD[:0]
	s.affT, s.dagT = s.affT[:0], s.dagT[:0]
	for t := 0; t < n; t++ {
		if !s.alive(t) {
			continue
		}
		switch s.classifyDelayBatch(t) {
		case affectFull:
			s.affD = append(s.affD, t)
		case affectDAGOnly:
			s.dagD = append(s.dagD, t)
		}
		switch s.classifyThroughputBatch(t) {
		case affectFull:
			s.affT = append(s.affT, t)
		case affectDAGOnly:
			s.dagT = append(s.dagT, t)
		}
	}
	s.batchD, s.batchT = s.batchD[:0], s.batchT[:0]
	for _, c := range s.lsChanges {
		li := c.Link
		if c.Up {
			s.mask.ReviveLink(li)
			s.batchD = append(s.batchD, spf.LinkChange{Link: li, OldEff: spf.Inf, NewEff: int64(s.w.Delay[li])})
			s.batchT = append(s.batchT, spf.LinkChange{Link: li, OldEff: spf.Inf, NewEff: int64(s.w.Throughput[li])})
		} else {
			s.mask.FailLink(li)
			s.batchD = append(s.batchD, spf.LinkChange{Link: li, OldEff: int64(s.w.Delay[li]), NewEff: spf.Inf})
			s.batchT = append(s.batchT, spf.LinkChange{Link: li, OldEff: int64(s.w.Throughput[li]), NewEff: spf.Inf})
		}
	}
	s.chg.kind, s.chg.link = chgBatch, -1
	csp.End()

	u := &s.undo
	u.res = s.res
	u.droppedT = s.droppedT
	s.recompute(u)
	s.endUpdateSpan(sp)
	return s.res
}

// classifyDelayBatch classifies the whole batch for destination t's
// delay-class cache: affectFull as soon as any restored link strictly
// improves or any tight failing link strands its tail, affectDAGOnly if
// only memberships toggle, affectNone otherwise.
func (s *Session) classifyDelayBatch(t int) int {
	dc := &s.dDest[t]
	dist := dc.state.Dist
	out := affectNone
	for _, c := range s.lsChanges {
		li := c.Link
		dv := dist[s.linkTo[li]]
		if dv >= spf.Inf {
			continue // the link can never lead to this destination
		}
		du := dist[s.linkFrom[li]]
		wl := int64(s.w.Delay[li])
		if c.Up {
			switch nd := dv + wl; {
			case nd < du:
				return affectFull // strictly shorter: distances change
			case nd == du:
				out = affectDAGOnly // joins the DAG at a distance tie
			}
			continue
		}
		if du != dv+wl {
			continue // off the DAG: it carried nothing
		}
		// Tight failing link: the tail must keep an original tight
		// out-link that survives the batch. The cached DAG adjacency is
		// exactly the tail's tight alive out-links.
		survives := false
		uu := s.linkFrom[li]
		for _, lj := range dc.dagLinks[dc.dagOff[uu]:dc.dagOff[uu+1]] {
			if s.lsMark[lj] != s.lsEpoch {
				survives = true
				break
			}
		}
		if !survives {
			return affectFull
		}
		out = affectDAGOnly
	}
	return out
}

// classifyThroughputBatch is classifyDelayBatch for the throughput
// class; with no cached adjacency the survival test scans the tail's
// out-links.
func (s *Session) classifyThroughputBatch(t int) int {
	st := &s.tStates[t]
	dist := st.Dist
	out := affectNone
	for _, c := range s.lsChanges {
		li := c.Link
		dv := dist[s.linkTo[li]]
		if dv >= spf.Inf {
			continue
		}
		du := dist[s.linkFrom[li]]
		wl := int64(s.w.Throughput[li])
		if c.Up {
			switch nd := dv + wl; {
			case nd < du:
				return affectFull
			case nd == du:
				out = affectDAGOnly
			}
			continue
		}
		if du != dv+wl {
			continue
		}
		survives := false
		uu := s.linkFrom[li]
		for _, lj := range s.e.g.OutLinks(int(uu)) {
			if s.lsMark[lj] == s.lsEpoch || !s.mask.LinkAlive(int(lj)) {
				continue
			}
			dvj := dist[s.linkTo[lj]]
			if dvj < spf.Inf && du == dvj+int64(s.w.Throughput[lj]) {
				survives = true
				break
			}
		}
		if !survives {
			return affectFull
		}
		out = affectDAGOnly
	}
	return out
}
