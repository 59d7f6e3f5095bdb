package routing

// Parallel session recompute: the per-destination work of Init and
// recompute — SPF repairs, DAG rebuilds, load-contribution refreshes and
// the Λ delay DP — is embarrassingly parallel (every destination touches
// only its own caches), while every cross-destination floating-point sum
// stays serial and in ascending destination/link order. Results are
// therefore bit-identical at any parallelism level: the parallel regions
// only fill per-destination (or per-link) slots, and the deterministic
// serial merge adds them in the exact order the from-scratch pass does.
//
// The structure is three regions per recompute, with serial glue between
// them:
//
//	prep (serial)      stash undo state, pop free-list buffers, build tasks
//	region 1           per-destination refresh (repair, DAG, contributions)
//	merge (serial)     dedup the workers' changed-link candidates
//	region 2           per-link load re-sum over destinations (t ascending)
//	glue (serial)      dropped-demand sum, linkPass, delay diff, needDP
//	region 3           per-destination Λ delay DP
//	tail (serial)      final t-ascending Λ/violation sums
//
// Worker scratch (a private spf.Workspace plus demand/flow/delay buffers
// and a changed-link candidate list) comes from a free list on the
// Evaluator, so the many sessions an optimizer or selector keeps share
// one pool and steady-state operation allocates nothing. The regions run
// on the session's par.Pool; how many workers they get is a rule, not a
// setting (see SetParallelism).

import (
	"runtime"

	"repro/internal/obsv"
	"repro/internal/spf"
)

// sesWorker is one worker's private scratch for the parallel regions.
// Worker 0 is the session's own buffers (the serial path uses only it);
// extra workers are borrowed from the evaluator's shared free list for
// the duration of one recompute.
type sesWorker struct {
	ws     *spf.Workspace
	demCol []float64
	flow   []float64
	delays []float64

	// Changed-link candidates collected during region 1, deduplicated
	// worker-locally via the epoch-marked lmark array and merged
	// serially (and deterministically) after the region.
	cand  []int
	lmark []int32
	epoch int32

	// The worker's lane in a traced fan-out: its span and task count.
	span  *obsv.Span
	tasks int
}

// markChanged records every link whose contribution term differs between
// the old and new vectors into the worker's candidate list, deduplicated
// across this recompute's calls via the worker-local epoch mark.
func (wk *sesWorker) markChanged(old, cur []float64) {
	for li := range old {
		if old[li] != cur[li] && wk.lmark[li] != wk.epoch {
			wk.lmark[li] = wk.epoch
			wk.cand = append(wk.cand, li)
		}
	}
}

// markChangedLinks is markChanged restricted to a candidate link list
// (the only places a contribution can differ).
func (wk *sesWorker) markChangedLinks(links []int32, old, cur []float64) {
	for _, li := range links {
		if old[li] != cur[li] && wk.lmark[li] != wk.epoch {
			wk.lmark[li] = wk.epoch
			wk.cand = append(wk.cand, int(li))
		}
	}
}

// nextEpoch advances the worker's candidate-dedup epoch, clearing the
// mark array on wraparound.
func (wk *sesWorker) nextEpoch() {
	if wk.epoch == int32(1<<31-1) {
		clear(wk.lmark)
		wk.epoch = 0
	}
	wk.epoch++
	wk.cand = wk.cand[:0]
}

// getSesWorker pops a worker from the evaluator's shared free list,
// growing the pool on first use. Safe for concurrent sessions.
func (e *Evaluator) getSesWorker() *sesWorker {
	e.wkMu.Lock()
	if k := len(e.wkFree); k > 0 {
		wk := e.wkFree[k-1]
		e.wkFree = e.wkFree[:k-1]
		e.wkMu.Unlock()
		return wk
	}
	e.wkMu.Unlock()
	n, m := e.g.NumNodes(), e.g.NumLinks()
	return &sesWorker{
		ws:     spf.NewWorkspace(e.g),
		demCol: make([]float64, n),
		flow:   make([]float64, n),
		delays: make([]float64, n),
		lmark:  make([]int32, m),
	}
}

// putSesWorkers returns borrowed workers to the shared free list.
func (e *Evaluator) putSesWorkers(wks []*sesWorker) {
	e.wkMu.Lock()
	e.wkFree = append(e.wkFree, wks...)
	e.wkMu.Unlock()
}

// parallelNodeFloor is the smallest graph on which a solo session fans
// its recompute regions out. Below it one update is too little work to
// pay for waking workers. Measured as one weight apply/revert on one
// session, 2 workers against serial on a 2-core VM (DESIGN.md, "Scaling
// to 1000 nodes"): a loss at 30 and 50 nodes, a gain from 70 up.
const parallelNodeFloor = 64

// SetParallelism marks the session solo: its caller drives it alone,
// never inside a fan-out over other sessions (Phase 1's search session,
// Phase 2's normal-conditions session, the migration planner's scoring
// session). A solo session on a graph of at least parallelNodeFloor
// nodes runs its per-destination and per-link regions on
// runtime.GOMAXPROCS(0) workers, read at every update. Every other
// session stays on the calling goroutine: its caller already fans out
// over sessions, and nesting the two levels would oversubscribe.
// Results are bit-identical either way.
func (s *Session) SetParallelism() { s.solo = true }

// workerCount is the worker budget of the session's next update.
func (s *Session) workerCount() int {
	switch {
	case s.forceWorkers > 0:
		return s.forceWorkers
	case s.solo && s.e.g.NumNodes() >= parallelNodeFloor:
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// destTask is one region-1 task: refresh destination t's caches for one
// class. oldIdx indexes the undo stash of the task's class.
type destTask struct {
	t      int32
	oldIdx int32
	kind   int8
}

const (
	taskDelayFull int8 = iota // repair delay SPF + DAG + contribution
	taskDelayDAG              // DAG/contribution refresh, distances kept
	taskThruFull              // repair throughput SPF + contribution
	taskThruDAG               // contribution refresh, distances kept
)

// Region identifiers for the shared task body.
const (
	regionDests  = iota // region 1: s.tasks
	regionInit          // Init's per-destination fill: s.lamQ
	regionLinks         // region 2: per-link load re-sum
	regionLambda        // region 3: Λ delay DP over s.lamRun
)

// beginPar borrows enough workers for the update's worker budget and
// resets every worker's candidate list and dedup epoch.
func (s *Session) beginPar() {
	for k := s.workerCount(); len(s.workers) < k; {
		s.workers = append(s.workers, s.e.getSesWorker())
	}
	for _, wk := range s.workers {
		wk.nextEpoch()
	}
}

// endPar returns the borrowed workers to the evaluator's pool.
func (s *Session) endPar() {
	if len(s.workers) > 1 {
		s.e.putSesWorkers(s.workers[1:])
		s.workers = s.workers[:1]
	}
}

// runRegion executes ntasks tasks of the given region on the session's
// pool and returns the number of workers that ran. The pool's body,
// s.taskFn, is bound once, so steady-state regions allocate nothing.
func (s *Session) runRegion(region, ntasks int) int {
	if ntasks == 0 {
		return 0
	}
	k := min(len(s.workers), ntasks)
	// Region span under the open update root (nil when untraced; every
	// span method is a no-op then). Worker spans, one per lane with its
	// task count, exist only when the region fans out: a serial region
	// is its own worker.
	rsp := s.spRoot.Child(regionSpanNames[region])
	rsp.SetAttr("tasks", int64(ntasks))
	rsp.SetAttr("workers", int64(k))
	lanes := k > 1 && rsp != nil
	if lanes {
		for w, wk := range s.workers[:k] {
			wk.tasks, wk.span = 0, rsp.Child("session.worker")
			wk.span.SetWorker(w)
		}
	}
	s.region = region
	s.pool.Run(k, ntasks, s.taskFn)
	if lanes {
		for _, wk := range s.workers[:k] {
			wk.span.SetAttr("tasks", int64(wk.tasks))
			wk.span.End()
			wk.span = nil
		}
	}
	rsp.End()
	return k
}

// regionTask runs task i of the current region on worker w.
func (s *Session) regionTask(w, i int) {
	wk := s.workers[w]
	wk.tasks++
	switch s.region {
	case regionDests:
		s.destTaskRun(i, wk)
	case regionInit:
		s.initTaskRun(i, wk)
	case regionLinks:
		s.linkTaskRun(i)
	case regionLambda:
		s.lambdaTaskRun(i, wk)
	}
}

// destTaskRun refreshes one destination's caches for one class (a
// region-1 task). It touches only the task's own per-destination slots
// plus the worker's private scratch, so tasks run concurrently without
// synchronization; the changed-link candidates it discovers go to the
// worker's list for the deterministic serial merge.
func (s *Session) destTaskRun(i int, wk *sesWorker) {
	tk := s.tasks[i]
	t := int(tk.t)
	u := &s.undo
	g := s.e.g
	switch tk.kind {
	case taskDelayFull, taskDelayDAG:
		dc := &s.dDest[t]
		old := &u.oldDDest[tk.oldIdx]
		dc.state.CopyFrom(&old.state)
		if tk.kind == taskDelayFull {
			dc.state.RepairBatch(wk.ws, g, s.w.Delay, s.batchD, s.mask)
		}
		s.buildDAG(dc)
		nc := s.dContrib[t]
		demandColumn(s.demD, t, s.skipNode, wk.demCol)
		s.accumulateDelayLoads(dc, wk.demCol, wk.flow, nc)
		oldC := u.oldDContrib[tk.oldIdx]
		wk.markChangedLinks(old.dagLinks, oldC, nc)
		wk.markChangedLinks(dc.dagLinks, oldC, nc)
	case taskThruFull, taskThruDAG:
		if tk.kind == taskThruFull {
			// The throughput refresh accumulates loads off the workspace,
			// so repair the snapshot inside it: restore the pre-change
			// state, repair in place, save the result.
			wk.ws.Restore(&u.oldTStates[tk.oldIdx])
			wk.ws.RepairBatch(g, s.w.Throughput, s.batchT, s.mask)
			wk.ws.Save(&s.tStates[t])
		} else {
			s.tStates[t].CopyFrom(&u.oldTStates[tk.oldIdx])
			wk.ws.Restore(&s.tStates[t])
		}
		nc := s.tContrib[t]
		demandColumn(s.demT, t, s.skipNode, wk.demCol)
		s.tDropped[t] = wk.ws.AccumulateLoadsInto(g, s.w.Throughput, wk.demCol, s.mask, nc)
		wk.markChanged(u.oldTContrib[tk.oldIdx], nc)
	}
}

// initTaskRun fills destination s.lamQ[i]'s caches from scratch: Init's
// per-destination body.
func (s *Session) initTaskRun(i int, wk *sesWorker) {
	t := s.lamQ[i]
	g := s.e.g
	dc := &s.dDest[t]
	// Delay class.
	wk.ws.Run(g, s.w.Delay, t, s.mask)
	wk.ws.Save(&dc.state)
	s.buildDAG(dc)
	demandColumn(s.demD, t, s.skipNode, wk.demCol)
	wk.ws.AccumulateLoadsInto(g, s.w.Delay, wk.demCol, s.mask, s.dContrib[t])
	// Throughput class.
	wk.ws.Run(g, s.w.Throughput, t, s.mask)
	wk.ws.Save(&s.tStates[t])
	demandColumn(s.demT, t, s.skipNode, wk.demCol)
	s.tDropped[t] = wk.ws.AccumulateLoadsInto(g, s.w.Throughput, wk.demCol, s.mask, s.tContrib[t])
}

// linkTaskRun re-sums one changed link's class loads over all
// destinations in ascending order — the same order the from-scratch pass
// adds them, so unchanged terms reproduce the exact same floating-point
// sums. Each task owns its link's slots; concurrent tasks never touch
// the same memory.
func (s *Session) linkTaskRun(i int) {
	li := s.chgLinks[i]
	n := s.e.g.NumNodes()
	var sumD, sumT float64
	for t := 0; t < n; t++ {
		if !s.alive(t) {
			continue
		}
		sumD += s.dContrib[t][li]
		sumT += s.tContrib[t][li]
	}
	s.loadD[li], s.loadT[li] = sumD, sumT
}

// lambdaTaskRun redoes one destination's Λ delay DP (a region-3 task).
func (s *Session) lambdaTaskRun(i int, wk *sesWorker) {
	t := s.lamRun[i]
	lt, vt, dt := s.destLambdaCached(&s.dDest[t], wk.delays)
	s.lambdaT[t], s.violT[t], s.discT[t] = lt, vt, dt
}
