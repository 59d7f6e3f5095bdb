package opt

import (
	"math"
	"runtime"
	"slices"
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
// so a move — and especially a rejected move — never re-evaluates
// destinations or scenarios it cannot affect. Config.FullEval restores
// the from-scratch sweeps; both modes visit the same moves on the same
// RNG stream and return bit-identical results.
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
	g := o.ev.Graph()
	scens := make([]phase2Scenario, set.Size())
	for i, sc := range set.Scenarios {
		mask := graph.NewMask(g)
		skip, demD, demT := sc.Apply(mask)
		scens[i] = phase2Scenario{mask: mask, skip: skip, demD: demD, demT: demT}
	}
	return o.runPhase2(p1, scens, probs)
}

// weightedCost compounds per-scenario costs under per-scenario weights
// — Eq. (7) for nil (uniform) weights, the probabilistic extension
// otherwise. results must align index-for-index with probs.
func weightedCost(probs []float64, results []routing.Result) cost.Cost {
	var total cost.Cost
	for i := range results {
		p := 1.0
		if probs != nil {
			p = probs[i]
		}
		total.Lambda += p * results[i].Cost.Lambda
		total.Phi += p * results[i].Cost.Phi
	}
	return total
}

// runPhase2 is the robust-search loop over rendered scenarios, weighted
// by probs (nil = uniform).
func (o *Optimizer) runPhase2(p1 *Phase1Result, scens []phase2Scenario, probs []float64) *Phase2Result {
	start := time.Now()
	cfg := o.cfg
	m := o.ev.Graph().NumLinks()
	lambdaStar := p1.Best.Cost.Lambda
	phiBound := (1 + cfg.Chi) * p1.Best.Cost.Phi

	evals := 0
	results := make([]routing.Result, len(scens))
	weighted := func() cost.Cost { return weightedCost(probs, results) }
	// The scenarios are independent, so every sweep over them fans out;
	// each index owns its result slot, keeping the weighted sum
	// deterministic.
	var fan par.Pool
	procs := runtime.GOMAXPROCS(0)
	evalFail := func(w *routing.WeightSetting) cost.Cost {
		fan.Run(procs, len(scens), func(_, i int) {
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
	var fses []*routing.Session
	if useSessions {
		nses = o.ev.NewSession(nil, -1)
		nses.SetSpanContext(root.TraceID(), root.ID())
		// The loop drives the normal-conditions session alone; the
		// scenario sessions run inside the fan-out and stay serial.
		nses.SetParallelism()
		fses = make([]*routing.Session, len(scens))
		for i, sc := range scens {
			fses[i] = o.ev.NewScenarioSession(sc.mask, sc.skip, sc.demD, sc.demT)
		}
	}
	initFail := func(w *routing.WeightSetting) cost.Cost {
		if !useSessions {
			return evalFail(w)
		}
		fan.Run(procs, len(fses), func(_, i int) { results[i] = fses[i].Init(w) })
		evals += len(fses)
		return weighted()
	}
	applyFail := func(l int, wd, wt int32) cost.Cost {
		fan.Run(procs, len(fses), func(_, i int) { results[i] = fses[i].Apply(l, wd, wt) })
		evals += len(fses)
		return weighted()
	}
	revertFail := func() {
		fan.Run(procs, len(fses), func(_, i int) { fses[i].Revert() })
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
				// failure scenarios are only touched when they pass.
				if cand.Cost.Lambda <= lambdaStar+1e-9 && cand.Cost.Phi <= phiBound+1e-12 {
					var candFail cost.Cost
					if useSessions {
						candFail = applyFail(l, wd, wt)
					} else {
						candFail = evalFail(w)
					}
					if candFail.Less(curFail) {
						curFail = candFail
						improved = true
						accepted = true
						if candFail.Less(bestFail) {
							bestFail = candFail
							if bestW == nil {
								bestW = w.Clone()
							} else {
								bestW.CopyFrom(w)
							}
						}
					} else if useSessions {
						revertFail()
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
			progress.publish(iter, evals)
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
	progress.publish(iter, evals)
	root.SetAttr("iterations", int64(iter))
	root.SetAttr("evals", int64(evals))
	root.End()
	res := &Phase2Result{
		BestW:     bestW,
		FailCost:  bestFail,
		StartPool: len(p1.Pool),
		Stats:     Stats{Iterations: iter, Evaluations: evals, Duration: time.Since(start)},
	}
	o.ev.EvaluateNormal(bestW, &res.Normal)
	return res
}
