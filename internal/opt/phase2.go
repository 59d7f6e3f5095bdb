package opt

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// FailureSet lists the failure scenarios a robust search optimizes
// against: any mix of directed-link failures and node failures. Both
// applies the physical (both-directions) link semantics.
//
// LinkProbs/NodeProbs, when set, weight each scenario's cost in the
// robust objective — the probabilistic failure model the paper's
// conclusion proposes as an extension. Unweighted sets reproduce the
// paper's uniform Σ over scenarios.
type FailureSet struct {
	Links []int
	Nodes []int
	Both  bool
	// LinkProbs and NodeProbs are per-scenario weights aligned with
	// Links and Nodes (e.g. failure probabilities). Nil means uniform.
	LinkProbs []float64
	NodeProbs []float64
}

// Size returns the scenario count.
func (fs FailureSet) Size() int { return len(fs.Links) + len(fs.Nodes) }

// validate panics on malformed probability vectors; called by RunPhase2.
func (fs FailureSet) validate() {
	if fs.LinkProbs != nil && len(fs.LinkProbs) != len(fs.Links) {
		panic("opt: LinkProbs length does not match Links")
	}
	if fs.NodeProbs != nil && len(fs.NodeProbs) != len(fs.Nodes) {
		panic("opt: NodeProbs length does not match Nodes")
	}
}

// AllLinkFailures covers every directed link of the evaluator's graph.
func AllLinkFailures(ev *routing.Evaluator) FailureSet {
	links := make([]int, ev.Graph().NumLinks())
	for i := range links {
		links[i] = i
	}
	return FailureSet{Links: links}
}

// AllNodeFailures covers every node.
func AllNodeFailures(ev *routing.Evaluator) FailureSet {
	nodes := make([]int, ev.Graph().NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	return FailureSet{Nodes: nodes}
}

// scenarios renders the set as a scenario set plus per-scenario
// weights: links first, then nodes, in the order listed — the
// compounding order of Eq. (7). Weights are nil for an unweighted set;
// a class without probabilities weighs 1.
func (fs FailureSet) scenarios() (scenario.Set, []float64) {
	set := scenario.Set{Scenarios: make([]scenario.Scenario, 0, fs.Size())}
	for _, l := range fs.Links {
		set.Scenarios = append(set.Scenarios, scenario.LinkFailure{Links: []int{l}, Both: fs.Both})
	}
	for _, v := range fs.Nodes {
		set.Scenarios = append(set.Scenarios, scenario.NodeFailure{Node: v})
	}
	if fs.LinkProbs == nil && fs.NodeProbs == nil {
		return set, nil
	}
	probs := appendWeights(make([]float64, 0, fs.Size()), fs.LinkProbs, len(fs.Links))
	return set, appendWeights(probs, fs.NodeProbs, len(fs.Nodes))
}

// appendWeights appends probs, or n unit weights when probs is nil.
func appendWeights(dst, probs []float64, n int) []float64 {
	if probs == nil {
		return append(dst, slices.Repeat([]float64{1}, n)...)
	}
	return append(dst, probs...)
}

// Phase2Result carries the robust optimization outcome.
type Phase2Result struct {
	// BestW is the most robust weight setting found; Normal its
	// normal-conditions evaluation.
	BestW  *routing.WeightSetting
	Normal routing.Result
	// FailCost is the compounded cost over the optimized failure set
	// (Λ̄_fail, Φ̄_fail of Eq. 7).
	FailCost cost.Cost
	// StartPool is the number of Phase 1 settings the search started
	// from.
	StartPool int
	Stats     Stats
}

// DefaultSessionBudgetBytes is the fallback for
// Config.SessionBudgetBytes: the per-scenario session caches of the
// robust search, and Phase 1b's worker sessions, may claim 1 GiB before
// the phase drops back to from-scratch sweeps.
const DefaultSessionBudgetBytes = 1 << 30

// sessionBudget returns Config.SessionBudgetBytes, or its default.
func (o *Optimizer) sessionBudget() int64 {
	if o.cfg.SessionBudgetBytes == 0 {
		return DefaultSessionBudgetBytes
	}
	return o.cfg.SessionBudgetBytes
}

// phase2Scenario is one scenario of the generalized robust objective: a
// failure pattern (the mask is owned by the scenario), an optional node
// whose traffic is removed, and optional demand-matrix overrides.
type phase2Scenario struct {
	mask       *graph.Mask
	skip       int
	demD, demT *traffic.Matrix
}

// RunPhase2 performs the robust optimization of Eq. (4) over the given
// failure scenarios (normally the critical links from Phase 1c; the full
// link set for a full search; or node failures). Starting from the
// acceptable settings recorded in Phase 1, it locally searches for the
// weight setting minimizing the compounded failure cost, subject to the
// normal-conditions constraints: Λ_normal = Λ* and Φ_normal ≤ (1+χ)Φ*.
// fs is rendered as a scenario set and searched by RunPhase2Set.
//
// By default the search is incremental: one Session per failure scenario
// (plus one for normal conditions) caches that scenario's routing state,
// so a move never re-evaluates destinations it cannot affect. A move
// that passes the normal-conditions constraints reaches the scenario
// sessions in descending order of their contribution to the current
// compounded cost, and the sweep stops as soon as a partial sum proves
// the move cannot beat that cost (cost.Cost.ProvesNotLess; sound
// because every weighted term is nonnegative, which is checked: weights,
// demands and penalty constants must be nonnegative, or no sweep stops
// early). Only the sessions it reached are reverted. Stats.Evaluations
// still counts every scenario of such a move; Stats.Pruned counts the
// skipped updates. Config.FullEval restores the from-scratch, unpruned
// sweeps; both modes visit the same moves on the same RNG stream and
// return bit-identical results.
func (o *Optimizer) RunPhase2(p1 *Phase1Result, fs FailureSet) *Phase2Result {
	fs.validate()
	set, probs := fs.scenarios()
	return o.RunPhase2Set(p1, set, probs)
}

// RunPhase2Set is RunPhase2 over an arbitrary scenario set — including
// traffic surges and failure-during-surge compounds, which FailureSet
// cannot express. It is the per-cluster optimization entry point of the
// control plane's configuration library: each cluster of the scenario
// space is handed here to produce one library configuration. probs,
// when non-nil, weights each scenario's cost (length must match the
// set); nil reproduces the uniform Σ.
func (o *Optimizer) RunPhase2Set(p1 *Phase1Result, set scenario.Set, probs []float64) *Phase2Result {
	if probs != nil && len(probs) != set.Size() {
		panic("opt: probs length does not match scenario set")
	}
	return o.runPhase2(p1, renderScenarios(o.ev.Graph(), set), probs)
}

// renderScenarios applies each scenario of set to a fresh mask of g.
func renderScenarios(g *graph.Graph, set scenario.Set) []phase2Scenario {
	scens := make([]phase2Scenario, set.Size())
	for i, sc := range set.Scenarios {
		mask := graph.NewMask(g)
		skip, demD, demT := sc.Apply(mask)
		scens[i] = phase2Scenario{mask: mask, skip: skip, demD: demD, demT: demT}
	}
	return scens
}

// scenarioWeight is scenario i's weight under probs (nil = uniform).
func scenarioWeight(probs []float64, i int) float64 {
	if probs == nil {
		return 1
	}
	return probs[i]
}

// weightedCost compounds per-scenario costs under per-scenario weights
// — Eq. (7) for nil (uniform) weights, the probabilistic extension
// otherwise. results must align index-for-index with probs.
func weightedCost(probs []float64, results []routing.Result) cost.Cost {
	var total cost.Cost
	for i := range results {
		p := scenarioWeight(probs, i)
		total.Lambda += p * results[i].Cost.Lambda
		total.Phi += p * results[i].Cost.Phi
	}
	return total
}

// prunable reports whether the premises of the robust search's prune
// hold: every scenario weight is a nonnegative number, no demand matrix
// a scenario evaluates (the evaluator's base matrices and every
// override) has a negative entry, and the SLA penalty constants are
// nonnegative. Every weighted per-scenario Λ and Φ term is then
// nonnegative — the Fortz–Thorup Φ of a nonnegative load is — which is
// what cost.Cost.ProvesNotLess needs to reason from a partial sum.
func prunable(ev *routing.Evaluator, scens []phase2Scenario, probs []float64) bool {
	for _, p := range probs {
		if !(p >= 0) {
			return false
		}
	}
	if !ev.Params().NonnegativePenalties() {
		return false
	}
	mats := []*traffic.Matrix{ev.DemandDelay(), ev.DemandThroughput()}
	for _, sc := range scens {
		mats = append(mats, sc.demD, sc.demT)
	}
	for _, dem := range mats {
		if dem != nil && dem.Validate() != nil {
			return false
		}
	}
	return true
}

// scenarioSweep moves the robust search's per-scenario sessions through
// one candidate move at a time, stopping early once the move provably
// loses. Sessions are visited in descending order of their accepted
// weighted contribution ⟨p·Λ, p·Φ⟩, Λ first, so the scenarios most
// likely to prove a rejection go first; each applied session adds its
// weighted terms to a shared partial sum, and the first worker whose
// addition proves the move is not Less than the current cost raises the
// stop flag. Workers then skip every session they have not started, so
// which sessions ran depends on scheduling, but the decision does not:
// a move that reaches every session is summed in index order by
// weightedCost, exactly as without the prune. Without the premises
// (prune false) the same loop never stops early.
type scenarioSweep struct {
	fses    []*routing.Session
	probs   []float64
	results []routing.Result // the accepted state, except mid-move
	order   []int            // visiting order (scenario indices)
	prune   bool
	fan     par.Pool
	procs   int

	// The move in flight and the cost it must beat.
	link   int
	wd, wt int32
	cur    cost.Cost

	mu      sync.Mutex
	partial cost.Cost // weighted sum over ran
	ran     []int     // sessions the move has been applied to
	stop    atomic.Bool
}

func newScenarioSweep(fses []*routing.Session, probs []float64, results []routing.Result, prune bool) *scenarioSweep {
	s := &scenarioSweep{
		fses:    fses,
		probs:   probs,
		results: results,
		order:   make([]int, len(fses)),
		prune:   prune,
		procs:   runtime.GOMAXPROCS(0),
		ran:     make([]int, 0, len(fses)),
	}
	for i := range s.order {
		s.order[i] = i
	}
	return s
}

// rebase re-initializes every session on w and re-sorts the visiting
// order.
func (s *scenarioSweep) rebase(w *routing.WeightSetting) {
	s.fan.Run(s.procs, len(s.fses), func(_, i int) { s.results[i] = s.fses[i].Init(w) })
	s.sortOrder()
}

// sortOrder sorts the visiting order by descending accepted weighted
// contribution, Λ before Φ, ties by scenario index.
func (s *scenarioSweep) sortOrder() {
	slices.SortFunc(s.order, func(a, b int) int {
		pa, pb := scenarioWeight(s.probs, a), scenarioWeight(s.probs, b)
		ca, cb := s.results[a].Cost, s.results[b].Cost
		if c := cmp.Compare(pb*cb.Lambda, pa*ca.Lambda); c != 0 {
			return c
		}
		if c := cmp.Compare(pb*cb.Phi, pa*ca.Phi); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// apply applies the move to the sessions in visiting order until the
// partial sum proves the move is not Less than cur, and returns the
// number of sessions it skipped: a nonzero count means the move lost.
func (s *scenarioSweep) apply(l int, wd, wt int32, cur cost.Cost) (skipped int) {
	s.link, s.wd, s.wt, s.cur = l, wd, wt, cur
	s.partial, s.ran = cost.Cost{}, s.ran[:0]
	s.stop.Store(false)
	s.fan.Run(s.procs, len(s.fses), s.applyTask)
	return len(s.fses) - len(s.ran)
}

func (s *scenarioSweep) applyTask(_, k int) {
	if s.stop.Load() {
		return
	}
	i := s.order[k]
	r := s.fses[i].Apply(s.link, s.wd, s.wt)
	s.results[i] = r
	p := scenarioWeight(s.probs, i)
	s.mu.Lock()
	s.ran = append(s.ran, i)
	s.partial.Lambda += p * r.Cost.Lambda
	s.partial.Phi += p * r.Cost.Phi
	if s.prune && s.partial.ProvesNotLess(s.cur, len(s.fses)) {
		s.stop.Store(true)
	}
	s.mu.Unlock()
}

// revert undoes the last move on the sessions it reached and restores
// their accepted results.
func (s *scenarioSweep) revert() {
	s.fan.Run(s.procs, len(s.ran), s.revertTask)
}

func (s *scenarioSweep) revertTask(_, k int) {
	i := s.ran[k]
	s.fses[i].Revert()
	s.results[i] = s.fses[i].Result()
}

// runPhase2 is the robust-search loop over rendered scenarios, weighted
// by probs (nil = uniform).
func (o *Optimizer) runPhase2(p1 *Phase1Result, scens []phase2Scenario, probs []float64) *Phase2Result {
	start := time.Now()
	cfg := o.cfg
	m := o.ev.Graph().NumLinks()
	lambdaStar := p1.Best.Cost.Lambda
	phiBound := (1 + cfg.Chi) * p1.Best.Cost.Phi

	evals, pruned := 0, 0
	results := make([]routing.Result, len(scens))
	weighted := func() cost.Cost { return weightedCost(probs, results) }
	// The scenarios are independent, so every sweep over them fans out;
	// each index owns its result slot, keeping the weighted sum
	// deterministic.
	var fan par.Pool
	evalFail := func(w *routing.WeightSetting) cost.Cost {
		fan.Run(runtime.GOMAXPROCS(0), len(scens), func(_, i int) {
			sc := &scens[i]
			o.ev.EvaluateDemands(w, sc.mask, sc.skip, sc.demD, sc.demT, &results[i])
		})
		evals += len(scens)
		return weighted()
	}

	useSessions := !cfg.FullEval && int64(len(scens)+1)*o.ev.SessionBytes() <= o.sessionBudget()
	// One root span for the whole phase; only the normal-conditions
	// session attaches — the scenario sessions fan out one-per-worker and
	// would flood the span ring with len(scens) records per move.
	var root *obsv.Span
	if mm := met.Get(); mm != nil {
		root = mm.reg.Spans().Start("opt.phase2")
	}
	root.SetAttr("scenarios", int64(len(scens)))
	var nses *routing.Session
	var sweep *scenarioSweep
	if useSessions {
		nses = o.ev.NewSession(nil, -1)
		nses.SetSpanContext(root.TraceID(), root.ID())
		// The loop drives the normal-conditions session alone; the
		// scenario sessions run inside the fan-out and stay serial.
		nses.SetParallelism()
		fses := make([]*routing.Session, len(scens))
		for i, sc := range scens {
			fses[i] = o.ev.NewScenarioSession(sc.mask, sc.skip, sc.demD, sc.demT)
		}
		sweep = newScenarioSweep(fses, probs, results, prunable(o.ev, scens, probs))
	}
	initFail := func(w *routing.WeightSetting) cost.Cost {
		if !useSessions {
			return evalFail(w)
		}
		sweep.rebase(w)
		evals += len(scens)
		return weighted()
	}

	bestFail := cost.Cost{Lambda: math.Inf(1), Phi: math.Inf(1)}
	var bestW *routing.WeightSetting

	w := routing.NewWeightSetting(m)
	var cand routing.Result
	iter := 0
	lowGain := 0
	progress := phaseProgress{phase: 2, start: start}
	for round := 0; lowGain < cfg.P2 && (cfg.MaxIter2 == 0 || iter < cfg.MaxIter2); round++ {
		// Each diversification round starts from a recorded acceptable
		// setting (cycling through the pool, then randomly).
		var entry PoolEntry
		if round < len(p1.Pool) {
			entry = p1.Pool[round]
		} else {
			entry = p1.Pool[o.rng.Intn(len(p1.Pool))]
		}
		w.CopyFrom(entry.W)
		if useSessions {
			nses.Init(w)
			evals++
		}
		curFail := initFail(w)
		if curFail.Less(bestFail) {
			bestFail = curFail
			bestW = w.Clone()
		}
		roundStartBest := bestFail

		sinceImprove := 0
		for sinceImprove < cfg.Div2Interval && (cfg.MaxIter2 == 0 || iter < cfg.MaxIter2) {
			iter++
			improved := false
			for _, l := range o.rng.Perm(m) {
				wd := int32(1 + o.rng.Intn(cfg.WMax))
				wt := int32(1 + o.rng.Intn(cfg.WMax))
				prevD, prevT := w.Set(l, wd, wt)
				if useSessions {
					cand = nses.Apply(l, wd, wt)
				} else {
					o.ev.EvaluateNormal(w, &cand)
				}
				evals++
				accepted := false
				// Constraints first: never trade away normal-conditions
				// delay performance; cap throughput degradation. The
				// failure scenarios are only touched when they pass, and
				// the session sweep stops once a partial sum proves the
				// move lost (it still counts every scenario evaluated).
				if cand.Cost.Lambda <= lambdaStar+1e-9 && cand.Cost.Phi <= phiBound+1e-12 {
					var candFail cost.Cost
					lost := false
					if useSessions {
						skipped := sweep.apply(l, wd, wt, curFail)
						evals += len(scens)
						pruned += skipped
						lost = skipped > 0
						if !lost {
							candFail = weighted()
						}
					} else {
						candFail = evalFail(w)
					}
					if !lost && candFail.Less(curFail) {
						curFail = candFail
						improved = true
						accepted = true
						if useSessions {
							sweep.sortOrder()
						}
						if candFail.Less(bestFail) {
							bestFail = candFail
							if bestW == nil {
								bestW = w.Clone()
							} else {
								bestW.CopyFrom(w)
							}
						}
					} else if useSessions {
						sweep.revert()
					}
				}
				if !accepted {
					w.Set(l, prevD, prevT)
					if useSessions {
						nses.Revert()
					}
				}
			}
			if improved {
				sinceImprove = 0
			} else {
				sinceImprove++
			}
			progress.publish(iter, evals, pruned)
		}
		if relGain(roundStartBest, bestFail) < cfg.CFrac {
			lowGain++
		} else {
			lowGain = 0
		}
	}

	if bestW == nil {
		// Degenerate budget (MaxIter2 = 0 rounds): fall back to the best
		// recorded setting.
		bestW = p1.Pool[0].W.Clone()
		bestFail = evalFail(bestW)
	}
	progress.publish(iter, evals, pruned)
	root.SetAttr("iterations", int64(iter))
	root.SetAttr("evals", int64(evals))
	root.SetAttr("pruned", int64(pruned))
	root.End()
	res := &Phase2Result{
		BestW:     bestW,
		FailCost:  bestFail,
		StartPool: len(p1.Pool),
		Stats:     Stats{Iterations: iter, Evaluations: evals, Pruned: pruned, Duration: time.Since(start)},
	}
	o.ev.EvaluateNormal(bestW, &res.Normal)
	return res
}
