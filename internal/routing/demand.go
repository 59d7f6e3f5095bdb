package routing

import (
	"sort"

	"repro/internal/traffic"
)

// The demand-delta path: demand updates are the one event class whose
// routing provably cannot change — weights and topology are untouched,
// so every SPF snapshot, DAG and distance stays exactly as it is. Only
// the destination columns whose demands moved need new load
// contributions and Λ subtotals, and the session's recompute tail
// (recompute, with every touched destination classified DAG-only)
// already maintains the link aggregates and the delay DP ripple in the
// bit-exact re-summation order. That holds however many columns move: a
// dense update that changes every column still costs no Dijkstra, and
// measures under half a full Init rebase. See DESIGN.md ("The
// demand-delta engine").

// SetDemands replaces the session's demand matrices — a dense
// demand-matrix telemetry update. Nil restores the evaluator's base
// matrix of that class. The update is diffed against the current
// matrices: destination columns with identical demands keep their
// cached contributions and Λ subtotals untouched (no work at all when
// the matrices are equal), and changed columns recompute without a
// single Dijkstra. Results are bit-identical to a from-scratch
// evaluation under the new matrices. Any pending undo is cleared; the
// matrices are adopted, not copied, and must not be mutated by the
// caller afterwards.
func (s *Session) SetDemands(demD, demT *traffic.Matrix) Result {
	if !s.inited {
		panic("routing: Session.SetDemands before Init")
	}
	if demD == nil {
		demD = s.e.demD
	}
	if demT == nil {
		demT = s.e.demT
	}
	if demD.Size() != s.e.g.NumNodes() || demT.Size() != s.e.g.NumNodes() {
		panic("routing: override traffic matrix size does not match graph")
	}
	if m := met.Get(); m != nil {
		m.updDemand.Inc()
	}
	sp := s.beginUpdateSpan("session.demand")
	s.chgColsD = changedColumns(s.demD, demD, s.chgColsD)
	s.chgColsT = changedColumns(s.demT, demT, s.chgColsT)
	s.demD, s.demT = demD, demT
	s.ownsDemD, s.ownsDemT = false, false
	res := s.refreshDemands(s.chgColsD, s.chgColsT)
	sp.SetAttr("columns", int64(len(s.chgColsD)+len(s.chgColsT)))
	s.endUpdateSpan(sp)
	return res
}

// ApplyDemandDelta folds sparse demand updates into the session's
// current matrices (nil deltas are no-ops for their class) and
// incrementally re-evaluates: only the destination columns the deltas
// actually change — entries restating the current value are skipped —
// recompute their load contributions and Λ subtotals; shortest-path
// state is provably untouched. The change commits immediately: any
// pending Apply or SetLinkStates undo is cleared and the update cannot
// itself be reverted (apply the delta's Inverse to undo it). Deltas
// must validate against the graph's node count (panic otherwise,
// matching the matrix-size contract); Old values are not checked — the
// delta describes the transition from whatever state the session
// holds. Results are bit-identical to SetDemands with the equivalent
// dense matrices.
func (s *Session) ApplyDemandDelta(dd, dt *traffic.Delta) Result {
	if !s.inited {
		panic("routing: Session.ApplyDemandDelta before Init")
	}
	if m := met.Get(); m != nil {
		m.updDelta.Inc()
	}
	n := s.e.g.NumNodes()
	if err := dd.Validate(n); err != nil {
		panic("routing: " + err.Error())
	}
	if err := dt.Validate(n); err != nil {
		panic("routing: " + err.Error())
	}
	sp := s.beginUpdateSpan("session.demand_delta")
	sp.SetAttr("entries", int64(dd.Len()+dt.Len()))
	s.chgColsD = s.applyDeltaClass(&s.demD, &s.ownsDemD, dd, s.chgColsD)
	s.chgColsT = s.applyDeltaClass(&s.demT, &s.ownsDemT, dt, s.chgColsT)
	res := s.refreshDemands(s.chgColsD, s.chgColsT)
	sp.SetAttr("columns", int64(len(s.chgColsD)+len(s.chgColsT)))
	s.endUpdateSpan(sp)
	return res
}

// refreshDemands is the shared evaluation tail of the demand updates:
// the session's matrices already hold the new values, chgD/chgT list
// the destination columns whose demands changed per class. It routes
// them through recompute with every changed, alive column classified
// DAG-only (distances untouched, contribution + Λ refresh only).
func (s *Session) refreshDemands(chgD, chgT []int) Result {
	if len(chgD)+len(chgT) == 0 {
		// Nothing observable moved; just honor the "pending undo is
		// cleared" contract.
		s.recycleUndo()
		s.canRevert = false
		return s.res
	}
	if m := met.Get(); m != nil {
		m.demandColumns.Observe(float64(len(chgD) + len(chgT)))
	}
	s.recycleUndo()
	s.canRevert = false
	u := &s.undo
	u.noop = false
	u.res = s.res
	u.droppedT = s.droppedT
	s.affD, s.affT = s.affD[:0], s.affT[:0]
	s.dagD, s.dagT = s.dagD[:0], s.dagT[:0]
	for _, t := range chgD {
		if s.alive(t) {
			s.dagD = append(s.dagD, t)
		}
	}
	for _, t := range chgT {
		if s.alive(t) {
			s.dagT = append(s.dagT, t)
		}
	}
	if len(s.dagD)+len(s.dagT) == 0 {
		return s.res // only dead destinations' columns moved
	}
	s.recompute(u)
	return s.res
}

// applyDeltaClass folds one class's delta into the session's matrix —
// clone-on-write, since the current matrix may be shared with the
// evaluator or a caller — and returns the destination columns whose
// values actually changed, ascending.
func (s *Session) applyDeltaClass(m **traffic.Matrix, owned *bool, d *traffic.Delta, cols []int) []int {
	cols = cols[:0]
	if d.Len() == 0 {
		return cols
	}
	cur := *m
	changes := false
	for _, e := range d.Entries {
		if cur.At(e.S, e.T) != e.New {
			changes = true
			break
		}
	}
	if !changes {
		return cols
	}
	if !*owned {
		if mm := met.Get(); mm != nil {
			mm.demandClones.Inc()
		}
		cur = cur.Clone()
		*m = cur
		*owned = true
	}
	s.colEpoch++
	for _, e := range d.Entries {
		if cur.At(e.S, e.T) == e.New {
			continue
		}
		cur.Set(e.S, e.T, e.New)
		if s.colMark[e.T] != s.colEpoch {
			s.colMark[e.T] = s.colEpoch
			cols = append(cols, e.T)
		}
	}
	sort.Ints(cols)
	return cols
}

// changedColumns lists the destination columns on which the two
// matrices differ, ascending.
func changedColumns(cur, next *traffic.Matrix, out []int) []int {
	out = out[:0]
	if cur == next {
		return out
	}
	n := cur.Size()
	for t := 0; t < n; t++ {
		for src := 0; src < n; src++ {
			if cur.At(src, t) != next.At(src, t) {
				out = append(out, t)
				break
			}
		}
	}
	return out
}
