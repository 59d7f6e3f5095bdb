package routing

import (
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/spf"
	"repro/internal/traffic"
)

// Session is a stateful incremental evaluator for a local search that
// changes one link's weights at a time, and for the online telemetry
// stream that moves its failure and demand state. It caches, for the
// current failure scenario (mask + skipNode) and weight setting:
//
//   - both classes' per-destination SPF snapshots (spf.State),
//   - each destination's per-link load contribution,
//   - the per-link load/delay/utilization aggregates, and
//   - each destination's Λ subtotal, violation and disconnection counts.
//
// Both link updates — a weight move (Apply) and a set of link flips
// (SetLinkStates) — describe their change as spf.LinkChange batches, one
// per class, and share one path (see linkbatch.go): a classifier sorts
// the destinations against the pre-change snapshots, touching
// shortest-path state only where distances can move (membership-only
// changes refresh the DAG and ECMP split without touching distances),
// and even those destinations are not re-solved from scratch: their
// snapshots are repaired in place (Ramalingam–Reps incremental SPF,
// spf.State.RepairBatch), revisiting only the vertices whose distance
// actually moved. recompute then folds the new contributions into the
// link loads and re-runs the delay DP only for destinations whose DAG
// changed or crosses a link whose delay value moved.
//
// Revert undoes the last Apply or SetLinkStates exactly, so a session
// also probes failure scenarios: take links down, read the Result,
// Revert (Phase 1b's per-link failure costs run this way). Demand
// updates (SetDemands, ApplyDemandDelta; see demand.go) never touch
// shortest-path state at all: weights are unchanged, so only the
// destination columns whose demands moved recompute their load
// contributions and Λ subtotals; demand updates, like Init, clear any
// pending undo. Full Dijkstras remain only where no pre-change snapshot
// exists: Init.
//
// Every Apply/Init result is bit-identical to what the stateless
// Evaluator.Evaluate computes for the same weights and scenario: the
// session shares the evaluator's pipeline primitives (AccumulateLoadsInto,
// linkPass, destLambda) and re-sums cached per-destination terms in the
// same order the from-scratch pass visits them. See DESIGN.md
// ("The incremental evaluation engine") for the invariants.
//
// Detail fields of Result are never filled. A Session is not safe for
// concurrent use; distinct Sessions are independent.
type Session struct {
	e        *Evaluator
	mask     *graph.Mask
	skipNode int
	w        *WeightSetting
	// demD and demT are the demand matrices the session evaluates —
	// the evaluator's base traffic unless overridden at construction
	// (NewScenarioSession), by SetDemands, or by ApplyDemandDelta.
	// The owns flags report whether the session holds a private copy
	// (ApplyDemandDelta clones on first write; adopted caller matrices
	// are never mutated).
	demD, demT         *traffic.Matrix
	ownsDemD, ownsDemT bool

	// Per-destination caches (index = destination; dead or skipped
	// destinations keep zero values and nil slices).
	dDest    []delayDest
	tStates  []spf.State
	dContrib [][]float64
	tContrib [][]float64
	tDropped []float64
	lambdaT  []float64
	violT    []int
	discT    []int
	linkFrom []int32 // the graph's shared endpoint arrays, for
	linkTo   []int32 // allocation-free membership tests

	// Link-level aggregates.
	loadD, loadT, loadTot []float64
	linkDelay, linkUtil   []float64
	droppedT              float64
	res                   Result

	// Scratch.
	affD, affT []int // destinations needing a fresh Dijkstra
	dagD, dagT []int // destinations needing only a DAG/load refresh
	chgLinks   []int
	linkMark   []int32
	markEpoch  int32
	needDP     []bool
	colMark    []int32 // per-destination dedup marks for demand deltas
	colEpoch   int32
	chgColsD   []int // changed demand columns per class, ascending
	chgColsT   []int

	// Parallel-recompute state (see parallel.go). self is worker 0 — the
	// session's own scratch buffers, the only worker the serial path
	// touches; extra workers are borrowed from the evaluator's shared
	// free list while a recompute's parallel regions run.
	solo         bool // SetParallelism: the caller drives this session alone
	forceWorkers int  // tests only: a fixed worker budget, bypassing the rule
	self         sesWorker
	workers      []*sesWorker
	tasks        []destTask
	lamQ         []int // Init's alive-destination list
	lamRun       []int // region 3's task list (u.lamDests or lamQ)
	region       int   // the region runRegion is running
	pool         par.Pool
	taskFn       func(worker, task int) // regionTask, bound once so regions allocate nothing

	// The pending link change of an Apply or SetLinkStates (see
	// linkbatch.go): the change in each class's effective weights, which
	// the classifier reads against the pre-change state and the region-1
	// repairs apply, plus per-class marks of the links it raises.
	lsChanges        []LinkStateChange // effective flips, deduplicated
	batchD, batchT   []spf.LinkChange
	raisedD, raisedT []int32 // this epoch: link raised (or failed) in the class
	raiseEpoch       int32

	// Span tracing (see span.go). spanTrace == 0 (the default) keeps the
	// session span-silent; spRoot is the open update root span.
	spanTrace, spanParent uint64
	spRoot                *obsv.Span

	undo        undoState
	freeDest    []delayDest
	freeStates  []spf.State
	freeContrib [][]float64
	canRevert   bool
	inited      bool
}

// delayDest is one destination's delay-class cache: the SPF snapshot plus
// the materialized ECMP DAG out-adjacency (dagLinks[dagOff[u]:dagOff[u+1]]
// lists node u's on-DAG out-links in adjacency order). The adjacency is
// valid exactly as long as the snapshot is — DAG membership of every link
// is invariant for destinations the classifier leaves untouched — and lets
// the delay DP skip the per-out-link membership recomputation that
// dominates its cost.
type delayDest struct {
	state    spf.State
	dagOff   []int32
	dagLinks []int32
}

// undoState holds everything needed to restore the session to its exact
// state before the last Apply or SetLinkStates.
type undoState struct {
	// Apply: the moved link and its previous class weights.
	link         int
	prevD, prevT int32
	// SetLinkStates: the committed flips, dead-endpoint flips included.
	// Revert re-flips them instead of restoring a weight; empty after an
	// Apply.
	flips    []LinkStateChange
	noop     bool
	res      Result
	droppedT float64

	affD, affT  []int
	oldDDest    []delayDest
	oldTStates  []spf.State
	oldDContrib [][]float64
	oldTContrib [][]float64
	oldTDropped []float64

	lamDests         []int
	oldLambda        []float64
	oldViol, oldDisc []int
	loadD, loadT     []float64
	loadTot          []float64
	linkDelay        []float64
	linkUtil         []float64
}

// NewSession returns a session bound to the failure scenario described by
// mask (retained, not copied; nil = normal conditions) and skipNode (the
// node whose traffic is removed, -1 for none). Init must be called before
// Apply. The session evaluates the evaluator's base traffic matrices.
func (e *Evaluator) NewSession(mask *graph.Mask, skipNode int) *Session {
	n, m := e.g.NumNodes(), e.g.NumLinks()
	linkFrom, linkTo := e.g.LinkEndpoints()
	s := &Session{
		e:         e,
		mask:      mask,
		skipNode:  skipNode,
		demD:      e.demD,
		demT:      e.demT,
		w:         NewWeightSetting(m),
		dDest:     make([]delayDest, n),
		tStates:   make([]spf.State, n),
		linkFrom:  linkFrom,
		linkTo:    linkTo,
		dContrib:  make([][]float64, n),
		tContrib:  make([][]float64, n),
		tDropped:  make([]float64, n),
		lambdaT:   make([]float64, n),
		violT:     make([]int, n),
		discT:     make([]int, n),
		loadD:     make([]float64, m),
		loadT:     make([]float64, m),
		loadTot:   make([]float64, m),
		linkDelay: make([]float64, m),
		linkUtil:  make([]float64, m),
		linkMark:  make([]int32, m),
		needDP:    make([]bool, n),
		colMark:   make([]int32, n),
		raisedD:   make([]int32, m),
		raisedT:   make([]int32, m),
	}
	s.self = sesWorker{
		ws:     spf.NewWorkspace(e.g),
		demCol: make([]float64, n),
		flow:   make([]float64, n),
		delays: make([]float64, n),
		lmark:  make([]int32, m),
	}
	s.workers = append(s.workers, &s.self)
	s.taskFn = s.regionTask
	return s
}

// NewScenarioSession returns a session for an arbitrary scenario: the
// failure pattern in mask (retained, not copied; nil = intact topology),
// skipNode's traffic removed (-1 for none), and demand matrices
// overriding the evaluator's base traffic (nil keeps the base matrix of
// that class). PhiNorm stays normalized by the base-traffic min-hop
// cost, matching Evaluator.EvaluateDemands, so results are bit-identical
// to EvaluateDemands under the same weights and scenario.
func (e *Evaluator) NewScenarioSession(mask *graph.Mask, skipNode int, demD, demT *traffic.Matrix) *Session {
	s := e.NewSession(mask, skipNode)
	if demD != nil {
		if demD.Size() != e.g.NumNodes() {
			panic("routing: override traffic matrix size does not match graph")
		}
		s.demD = demD
	}
	if demT != nil {
		if demT.Size() != e.g.NumNodes() {
			panic("routing: override traffic matrix size does not match graph")
		}
		s.demT = demT
	}
	return s
}

// Weights returns the session's current weight setting. The caller must
// treat it as read-only; use Apply to change weights.
func (s *Session) Weights() *WeightSetting { return s.w }

// Result returns the evaluation of the current weights.
func (s *Session) Result() Result { return s.res }

// Evaluator returns the evaluator the session is bound to.
func (s *Session) Evaluator() *Evaluator { return s.e }

// alive reports whether destination t participates in this scenario.
func (s *Session) alive(t int) bool {
	return t != s.skipNode && s.mask.NodeAlive(t)
}

// Init (re)bases the session on w with a full from-scratch evaluation,
// filling every cache. It is the rebase used at diversification restarts.
func (s *Session) Init(w *WeightSetting) Result {
	if m := met.Get(); m != nil {
		m.inits.Inc()
	}
	sp := s.beginUpdateSpan("session.init")
	e := s.e
	n := e.g.NumNodes()
	s.w.CopyFrom(w)
	s.recycleUndo()
	s.canRevert = false
	s.inited = true

	clear(s.loadD)
	clear(s.loadT)
	s.droppedT = 0

	// Per-destination fill (SPF runs, DAGs, load contributions),
	// parallelized across the session's workers. The cross-destination
	// load sums happen below, serially and destination-ascending, so the
	// result is bit-identical at any parallelism level.
	s.lamQ = s.lamQ[:0]
	for t := 0; t < n; t++ {
		if !s.alive(t) {
			continue
		}
		s.dContrib[t] = resizeFloats(s.dContrib[t], len(s.loadD))
		s.tContrib[t] = resizeFloats(s.tContrib[t], len(s.loadT))
		s.lamQ = append(s.lamQ, t)
	}
	s.beginPar()
	s.countDestTasks(s.runRegion(regionInit, len(s.lamQ)), len(s.lamQ))
	for _, t := range s.lamQ {
		addLoads(s.loadD, s.dContrib[t])
		addLoads(s.loadT, s.tContrib[t])
		s.droppedT += s.tDropped[t]
	}

	phi, maxUtil, sumUtil, aliveLinks := e.linkPass(s.loadD, s.loadT, s.loadTot, s.linkDelay, s.linkUtil, s.mask)
	phi += s.droppedT * phiDropPenaltyPerMbps

	s.lamRun = s.lamQ
	s.runRegion(regionLambda, len(s.lamRun))
	s.endPar()
	var lambda float64
	violations, disconnected := 0, 0
	for _, t := range s.lamQ {
		lambda += s.lambdaT[t]
		violations += s.violT[t]
		disconnected += s.discT[t]
	}

	s.res = s.assemble(lambda, phi, violations, disconnected, maxUtil, sumUtil, aliveLinks)
	sp.SetAttr("dests", int64(len(s.lamQ)))
	s.endUpdateSpan(sp)
	return s.res
}

// countDestTasks feeds the parallel-vs-serial destination-task counters:
// k is the worker count a region ran with, ntasks its task count.
func (s *Session) countDestTasks(k, ntasks int) {
	if m := met.Get(); m != nil {
		if k > 1 {
			m.destsParallel.Add(int64(ntasks))
		} else {
			m.destsSerial.Add(int64(ntasks))
		}
	}
}

// Apply changes link l's class weights to (wd, wt), incrementally
// re-evaluates, and returns the new Result. Only the most recent Apply
// or SetLinkStates can be undone with Revert; a subsequent one commits
// the previous one.
func (s *Session) Apply(l int, wd, wt int32) Result {
	if !s.inited {
		panic("routing: Session.Apply before Init")
	}
	if m := met.Get(); m != nil {
		m.updWeight.Inc()
	}
	sp := s.beginUpdateSpan("session.weight")
	sp.SetAttr("link", int64(l))
	s.recycleUndo()
	u := &s.undo

	// The move is a one-change batch per class, classified against the
	// pre-move snapshots.
	oldD, oldT := s.w.Delay[l], s.w.Throughput[l]
	csp := sp.Child("session.classify")
	s.batchD = append(s.batchD[:0], spf.LinkChange{Link: l, OldEff: int64(oldD), NewEff: int64(wd)})
	s.batchT = append(s.batchT[:0], spf.LinkChange{Link: l, OldEff: int64(oldT), NewEff: int64(wt)})
	s.classify()
	csp.End()

	u.link, u.prevD, u.prevT = l, oldD, oldT
	u.res = s.res
	u.droppedT = s.droppedT
	s.w.Set(l, wd, wt)
	s.canRevert = true

	if len(s.affD)+len(s.dagD) == 0 && len(s.affT)+len(s.dagT) == 0 {
		// No destination's routing can change in either class, so loads,
		// delays and every cost term stay exactly as they are.
		u.noop = true
		sp.SetAttr("noop", 1)
		s.endUpdateSpan(sp)
		return s.res
	}
	u.noop = false
	s.recompute(u)
	s.endUpdateSpan(sp)
	return s.res
}

// recompute re-evaluates the session after the affected destinations of
// each class have been classified into s.affD/s.dagD (delay: SPF repair
// vs DAG-only refresh) and s.affT/s.dagT (throughput), stashing
// everything it overwrites into u so Revert can restore it. It is the
// shared tail of the link updates (Apply and SetLinkStates, whose
// repairs apply s.batchD/s.batchT) and the per-column demand refresh;
// the caller must already have committed the triggering change
// (weights, mask or matrices) to the session.
func (s *Session) recompute(u *undoState) {
	if m := met.Get(); m != nil {
		m.destsRepair.Add(int64(len(s.affD) + len(s.affT)))
		m.destsDAGOnly.Add(int64(len(s.dagD) + len(s.dagT)))
	}
	e, g := s.e, s.e.g
	n := g.NumNodes()

	// Snapshot link-level aggregates wholesale: O(links) copies are cheap
	// next to even one Dijkstra, and restoring them is exact.
	u.loadD = append(u.loadD[:0], s.loadD...)
	u.loadT = append(u.loadT[:0], s.loadT...)
	u.loadTot = append(u.loadTot[:0], s.loadTot...)
	u.linkDelay = append(u.linkDelay[:0], s.linkDelay...)
	u.linkUtil = append(u.linkUtil[:0], s.linkUtil...)
	u.affD = append(append(u.affD[:0], s.affD...), s.dagD...)
	u.affT = append(append(u.affT[:0], s.affT...), s.dagT...)

	// Serial prep: stash the old per-destination caches and pop their
	// replacements from the free lists in a fixed order (affD, dagD,
	// affT, dagT — the order Revert indexes the stash by), building the
	// task list for region 1.
	s.tasks = s.tasks[:0]
	for i, t := range s.affD {
		u.oldDDest = append(u.oldDDest, s.dDest[t])
		s.dDest[t] = s.newDest()
		u.oldDContrib = append(u.oldDContrib, s.dContrib[t])
		s.dContrib[t] = s.newContrib()
		s.tasks = append(s.tasks, destTask{t: int32(t), oldIdx: int32(i), kind: taskDelayFull})
	}
	base := len(s.affD)
	for j, t := range s.dagD {
		u.oldDDest = append(u.oldDDest, s.dDest[t])
		s.dDest[t] = s.newDest()
		u.oldDContrib = append(u.oldDContrib, s.dContrib[t])
		s.dContrib[t] = s.newContrib()
		s.tasks = append(s.tasks, destTask{t: int32(t), oldIdx: int32(base + j), kind: taskDelayDAG})
	}
	for i, t := range s.affT {
		u.oldTStates = append(u.oldTStates, s.tStates[t])
		s.tStates[t] = s.newState()
		u.oldTContrib = append(u.oldTContrib, s.tContrib[t])
		s.tContrib[t] = s.newContrib()
		u.oldTDropped = append(u.oldTDropped, s.tDropped[t])
		s.tasks = append(s.tasks, destTask{t: int32(t), oldIdx: int32(i), kind: taskThruFull})
	}
	base = len(s.affT)
	for j, t := range s.dagT {
		u.oldTStates = append(u.oldTStates, s.tStates[t])
		s.tStates[t] = s.newState()
		u.oldTContrib = append(u.oldTContrib, s.tContrib[t])
		s.tContrib[t] = s.newContrib()
		u.oldTDropped = append(u.oldTDropped, s.tDropped[t])
		s.tasks = append(s.tasks, destTask{t: int32(t), oldIdx: int32(base + j), kind: taskThruDAG})
	}

	// Region 1: refresh the affected destinations. Destinations whose
	// distances can move repair the pre-change snapshot with the pending
	// link change (s.batchD/s.batchT; Ramalingam–Reps, see spf/batch.go);
	// membership-only ones keep the (provably unchanged) distances and
	// just refresh the DAG and the ECMP load split. Demand updates only
	// produce the latter, so they need no link change. Each task touches
	// only its destination's slots; changed-link candidates go to
	// per-worker lists.
	s.beginPar()
	root := s.spRoot
	var spfBase spf.RepairStats
	if root != nil {
		root.SetAttr("dests_repair", int64(len(s.affD)+len(s.affT)))
		root.SetAttr("dests_dag_only", int64(len(s.dagD)+len(s.dagT)))
		spfBase = s.workerStats()
	}
	s.countDestTasks(s.runRegion(regionDests, len(s.tasks)), len(s.tasks))
	if root != nil {
		d := s.workerStats().Sub(spfBase)
		root.SetAttr("repair_batch", int64(d.Batch))
		root.SetAttr("spf_runs", int64(d.Runs))
		root.SetAttr("changed_nodes", int64(d.ChangedNodes))
	}

	// Serial merge: deduplicate the workers' changed-link candidates in
	// worker order. Only the resulting set matters — each changed link's
	// re-sum below is independent and deterministic.
	s.markEpoch++
	s.chgLinks = s.chgLinks[:0]
	for _, wk := range s.workers {
		for _, li := range wk.cand {
			if s.linkMark[li] != s.markEpoch {
				s.linkMark[li] = s.markEpoch
				s.chgLinks = append(s.chgLinks, li)
			}
		}
	}

	// Region 2: re-sum the changed links' class loads over all
	// destinations in ascending order — the same order the from-scratch
	// pass adds them, so unchanged terms reproduce the exact same
	// floating-point sums.
	s.runRegion(regionLinks, len(s.chgLinks))
	if len(s.affT)+len(s.dagT) > 0 {
		var sum float64
		for t := 0; t < n; t++ {
			if !s.alive(t) {
				continue
			}
			sum += s.tDropped[t]
		}
		s.droppedT = sum
	}

	// Aggregate pass over all links (identical loop to the from-scratch
	// path), then find the links whose delay value actually moved.
	phi, maxUtil, sumUtil, aliveLinks := e.linkPass(s.loadD, s.loadT, s.loadTot, s.linkDelay, s.linkUtil, s.mask)
	phi += s.droppedT * phiDropPenaltyPerMbps

	s.chgLinks = s.chgLinks[:0] // reuse for delay-changed links
	for li := range s.linkDelay {
		if s.linkDelay[li] != u.linkDelay[li] {
			s.chgLinks = append(s.chgLinks, li)
		}
	}

	// The Λ pass must be redone for destinations whose DAG changed, for
	// destinations whose demand column changed (Λ weighs pairs by
	// demand), and for destinations whose (unchanged) DAG crosses a link
	// whose delay changed.
	for i := range s.needDP {
		s.needDP[i] = false
	}
	for _, t := range s.affD {
		s.needDP[t] = true
	}
	for _, t := range s.dagD {
		s.needDP[t] = true
	}
	if len(s.chgLinks) > 0 {
		for t := 0; t < n; t++ {
			if s.needDP[t] || !s.alive(t) {
				continue
			}
			dist := s.dDest[t].state.Dist
			for _, li := range s.chgLinks {
				dv := dist[s.linkTo[li]]
				if dv < spf.Inf && dist[s.linkFrom[li]] == dv+int64(s.w.Delay[li]) && s.mask.LinkAlive(li) {
					s.needDP[t] = true
					break
				}
			}
		}
	}
	u.lamDests = u.lamDests[:0]
	u.oldLambda = u.oldLambda[:0]
	u.oldViol = u.oldViol[:0]
	u.oldDisc = u.oldDisc[:0]
	for t := 0; t < n; t++ {
		if !s.needDP[t] || !s.alive(t) {
			continue
		}
		u.lamDests = append(u.lamDests, t)
		u.oldLambda = append(u.oldLambda, s.lambdaT[t])
		u.oldViol = append(u.oldViol, s.violT[t])
		u.oldDisc = append(u.oldDisc, s.discT[t])
	}

	// Region 3: redo the Λ delay DP per flagged destination. Each task
	// writes only its destination's subtotal slots; the final sums below
	// stay serial and destination-ascending.
	s.lamRun = u.lamDests
	s.runRegion(regionLambda, len(s.lamRun))
	s.endPar()

	var lambda float64
	violations, disconnected := 0, 0
	for t := 0; t < n; t++ {
		if !s.alive(t) {
			continue
		}
		lambda += s.lambdaT[t]
		violations += s.violT[t]
		disconnected += s.discT[t]
	}

	s.res = s.assemble(lambda, phi, violations, disconnected, maxUtil, sumUtil, aliveLinks)
}

// Revert restores the state before the last Apply or SetLinkStates
// exactly: the weight move or the link flips are undone and every cache
// gets its stashed bits back. It panics if no update is pending (Init,
// a demand update, a previous Revert, or a batch with no effective flip
// after Init cleared it). Only the most recent update is revertible; a
// subsequent Apply or SetLinkStates commits the previous one.
func (s *Session) Revert() {
	if !s.canRevert {
		panic("routing: Session.Revert without a preceding Apply or SetLinkStates")
	}
	s.canRevert = false
	u := &s.undo
	if len(u.flips) > 0 {
		for _, c := range u.flips {
			if c.Up {
				s.mask.FailLink(c.Link)
			} else {
				s.mask.ReviveLink(c.Link)
			}
		}
		u.flips = u.flips[:0]
	} else {
		s.w.Set(u.link, u.prevD, u.prevT)
	}
	if u.noop {
		return
	}
	for i, t := range u.affD {
		s.freeDest = append(s.freeDest, s.dDest[t])
		s.dDest[t] = u.oldDDest[i]
		s.freeContrib = append(s.freeContrib, s.dContrib[t])
		s.dContrib[t] = u.oldDContrib[i]
	}
	for i, t := range u.affT {
		s.freeStates = append(s.freeStates, s.tStates[t])
		s.tStates[t] = u.oldTStates[i]
		s.freeContrib = append(s.freeContrib, s.tContrib[t])
		s.tContrib[t] = u.oldTContrib[i]
		s.tDropped[t] = u.oldTDropped[i]
	}
	u.oldDDest = u.oldDDest[:0]
	u.oldTStates = u.oldTStates[:0]
	u.oldDContrib = u.oldDContrib[:0]
	u.oldTContrib = u.oldTContrib[:0]
	u.oldTDropped = u.oldTDropped[:0]
	copy(s.loadD, u.loadD)
	copy(s.loadT, u.loadT)
	copy(s.loadTot, u.loadTot)
	copy(s.linkDelay, u.linkDelay)
	copy(s.linkUtil, u.linkUtil)
	for i, t := range u.lamDests {
		s.lambdaT[t] = u.oldLambda[i]
		s.violT[t] = u.oldViol[i]
		s.discT[t] = u.oldDisc[i]
	}
	s.droppedT = u.droppedT
	s.res = u.res
}

// Mask returns the session's failure mask (nil = intact topology). It is
// owned by the session; callers must not mutate it directly — link
// events go through SetLinkStates — but may read it to mirror the
// session's scenario.
func (s *Session) Mask() *graph.Mask { return s.mask }

func (s *Session) assemble(lambda, phi float64, violations, disconnected int, maxUtil, sumUtil float64, aliveLinks int) Result {
	res := Result{
		Cost:         cost.Cost{Lambda: lambda, Phi: phi},
		PhiNorm:      phi / s.e.phiUncap,
		Violations:   violations,
		Disconnected: disconnected,
		MaxUtil:      maxUtil,
	}
	if aliveLinks > 0 {
		res.AvgUtil = sumUtil / float64(aliveLinks)
	}
	return res
}

// recycleUndo returns the previous update's stashed buffers (now
// committed) to the free lists.
func (s *Session) recycleUndo() {
	u := &s.undo
	u.flips = u.flips[:0]
	s.freeDest = append(s.freeDest, u.oldDDest...)
	s.freeStates = append(s.freeStates, u.oldTStates...)
	s.freeContrib = append(s.freeContrib, u.oldDContrib...)
	s.freeContrib = append(s.freeContrib, u.oldTContrib...)
	u.oldDDest = u.oldDDest[:0]
	u.oldTStates = u.oldTStates[:0]
	u.oldDContrib = u.oldDContrib[:0]
	u.oldTContrib = u.oldTContrib[:0]
	u.oldTDropped = u.oldTDropped[:0]
}

func (s *Session) newState() spf.State {
	if k := len(s.freeStates); k > 0 {
		st := s.freeStates[k-1]
		s.freeStates = s.freeStates[:k-1]
		return st
	}
	return spf.State{}
}

func (s *Session) newDest() delayDest {
	if k := len(s.freeDest); k > 0 {
		d := s.freeDest[k-1]
		s.freeDest = s.freeDest[:k-1]
		return d
	}
	return delayDest{}
}

// accumulateDelayLoads is spf's AccumulateLoadsInto over the cached DAG
// adjacency: the same seeds, node order, pull sums and share writes (the
// cached lists reproduce the out-link visit order exactly), minus the
// per-link membership recomputation. flow is the caller's (worker's)
// node-flow scratch.
func (s *Session) accumulateDelayLoads(dc *delayDest, dem, flow, contrib []float64) float64 {
	g := s.e.g
	clear(contrib)
	clear(flow)
	var dropped float64
	dist := dc.state.Dist
	dest := dc.state.Dest
	for v, d := range dem {
		if d == 0 || v == int(dest) {
			continue
		}
		if dist[v] >= spf.Inf {
			dropped += d
			continue
		}
		flow[v] = d
	}
	order := dc.state.Order
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		f := flow[v]
		for _, li := range g.InLinks(int(v)) {
			f += contrib[li]
		}
		if f == 0 {
			continue
		}
		dag := dc.dagLinks[dc.dagOff[v]:dc.dagOff[v+1]]
		if len(dag) == 0 {
			continue // v is the destination
		}
		share := f / float64(len(dag))
		for _, li := range dag {
			contrib[li] = share
		}
	}
	return dropped
}

// buildDAG materializes the delay-class ECMP DAG out-adjacency for a
// freshly (re)computed destination, in out-link adjacency order — the
// exact link visit order of the membership-testing DP it replaces.
func (s *Session) buildDAG(dc *delayDest) {
	g := s.e.g
	n := g.NumNodes()
	if cap(dc.dagOff) < n+1 {
		dc.dagOff = make([]int32, n+1)
	}
	dc.dagOff = dc.dagOff[:n+1]
	dc.dagLinks = dc.dagLinks[:0]
	dist := dc.state.Dist
	for u := 0; u < n; u++ {
		dc.dagOff[u] = int32(len(dc.dagLinks))
		du := dist[u]
		for _, li := range g.OutLinks(u) {
			dv := dist[s.linkTo[li]]
			if dv < spf.Inf && du == dv+int64(s.w.Delay[li]) && s.mask.LinkAlive(int(li)) {
				dc.dagLinks = append(dc.dagLinks, li)
			}
		}
	}
	dc.dagOff[n] = int32(len(dc.dagLinks))
}

// destLambdaCached is destLambda over the destination's materialized DAG:
// the same dynamic program as spf's WorstDelays/MeanDelays (identical
// per-node visit order and arithmetic, hence identical bits), minus the
// per-out-link membership recomputation. out is the caller's (worker's)
// per-node delay scratch.
func (s *Session) destLambdaCached(dc *delayDest, out []float64) (lambda float64, violations, disconnected int) {
	e := s.e
	worst := e.metric == WorstPath
	for i := range out {
		out[i] = spf.InfDelay
	}
	dest := dc.state.Dest
	for _, u := range dc.state.Order {
		if u == dest {
			out[u] = 0
			continue
		}
		var acc float64
		k := 0
		for _, li := range dc.dagLinks[dc.dagOff[u]:dc.dagOff[u+1]] {
			d := s.linkDelay[li] + out[s.linkTo[li]]
			if worst {
				if k == 0 || d > acc {
					acc = d
				}
			} else {
				acc += d
			}
			k++
		}
		if k == 0 {
			continue
		}
		if !worst {
			acc /= float64(k)
		}
		out[u] = acc
	}
	return e.lambdaFromDelays(out, s.skipNode, int(dest), s.demD, nil)
}

func (s *Session) newContrib() []float64 {
	if k := len(s.freeContrib); k > 0 {
		c := s.freeContrib[k-1]
		s.freeContrib = s.freeContrib[:k-1]
		return c
	}
	return make([]float64, s.e.g.NumLinks())
}

// SessionBytes estimates the resident size of one Session in bytes, used
// by callers that keep many sessions (one per failure scenario) to bound
// total memory.
func (e *Evaluator) SessionBytes() int64 {
	n := int64(e.g.NumNodes())
	m := int64(e.g.NumLinks())
	// Per destination: two classes of contribution vectors and SPF
	// snapshots, plus the materialized delay-DAG adjacency.
	perDest := 2*m*8 + 2*n*12 + m*4 + (n+1)*4
	// Doubled: across moves the undo stash and free lists can retain a
	// second copy of every per-destination cache. The trailing terms are
	// the link-level arrays (current + undo snapshots) and node-sized
	// scratch.
	return 2*n*perDest + 21*m*8 + 10*n*8
}
