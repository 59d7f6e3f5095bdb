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
// one pool and steady-state operation allocates nothing.

import (
	"runtime"
	"sync"
	"sync/atomic"

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

// SetParallelism sets how many workers the session's recomputes may use
// for their per-destination and per-link regions. k <= 0 means
// runtime.GOMAXPROCS(0); 1 (the default) keeps everything on the calling
// goroutine. Results are bit-identical at every setting — parallelism
// changes wall-clock time, never bits — so it can be flipped at any
// point, including between an Apply and its Revert.
func (s *Session) SetParallelism(k int) {
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	s.parK = k
	if m := met.Get(); m != nil {
		m.workers.Set(float64(k))
	}
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

// Region identifiers for the shared worker loop.
const (
	regionDests  = iota // region 1: s.tasks
	regionInit          // Init's per-destination fill: s.lamQ
	regionLinks         // region 2: per-link load re-sum
	regionLambda        // region 3: Λ delay DP over s.lamRun
)

// parRun is the coordination state of one parallel region: tasks are
// pulled off a single atomic counter, workers are assigned by a second
// one, and the main goroutine participates as worker 0.
type parRun struct {
	region int32
	ntasks int32
	next   atomic.Int32
	widx   atomic.Int32
	wg     sync.WaitGroup
}

// beginPar borrows enough workers for the session's parallelism level
// and resets every worker's candidate list and dedup epoch.
func (s *Session) beginPar() {
	for len(s.workers) < s.parK {
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

// runRegion executes ntasks tasks of the given region across the
// session's workers and returns the number of workers that ran. With one
// worker (or one task) everything stays inline on the calling goroutine;
// otherwise the main goroutine participates as worker 0 and waits for
// the k-1 spawned bodies. Spawning per region (rather than parking
// persistent goroutines) keeps the session single-threaded between
// regions; dead goroutines are recycled by the runtime, so steady-state
// regions allocate nothing.
func (s *Session) runRegion(region, ntasks int) int {
	if ntasks == 0 {
		return 0
	}
	k := len(s.workers)
	if k > ntasks {
		k = ntasks
	}
	// Region span under the open update root (nil when untraced; every
	// span method is a no-op then). Worker task spans exist only when the
	// region actually fans out: serial regions are the worker.
	rsp := s.spRoot.Child(regionSpanNames[region])
	rsp.SetAttr("tasks", int64(ntasks))
	rsp.SetAttr("workers", int64(k))
	s.pr.region = int32(region)
	s.pr.ntasks = int32(ntasks)
	s.pr.next.Store(0)
	if k > 1 {
		s.spRegion = rsp // published before the spawns, cleared after the join
		s.pr.widx.Store(0)
		s.pr.wg.Add(k - 1)
		for i := 1; i < k; i++ {
			// s.parGo is the pre-bound method value: spawning through it
			// (rather than `go s.parBody()`) avoids the per-spawn closure
			// the compiler would otherwise allocate to capture s.
			go s.parGo()
		}
		wsp := rsp.Child("session.worker")
		wsp.SetWorker(0)
		wsp.SetAttr("tasks", int64(s.regionLoop(s.workers[0])))
		wsp.End()
		s.pr.wg.Wait()
		s.spRegion = nil
	} else {
		s.regionLoop(s.workers[0])
	}
	rsp.End()
	return k
}

func (s *Session) parBody() {
	i := s.pr.widx.Add(1)
	wsp := s.spRegion.Child("session.worker")
	wsp.SetWorker(int(i))
	wsp.SetAttr("tasks", int64(s.regionLoop(s.workers[i])))
	wsp.End()
	s.pr.wg.Done()
}

// regionLoop pulls tasks off the shared counter until the region is
// drained, returning how many tasks this worker ran (the busy share its
// task span reports).
func (s *Session) regionLoop(wk *sesWorker) int {
	region, ntasks := s.pr.region, int(s.pr.ntasks)
	done := 0
	for {
		i := int(s.pr.next.Add(1)) - 1
		if i >= ntasks {
			return done
		}
		done++
		switch region {
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
