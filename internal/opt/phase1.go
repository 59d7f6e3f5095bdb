package opt

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/routing"
)

// Optimizer runs the heuristic over one evaluator (graph + traffic +
// cost model). It is not safe for concurrent use; parallelism lives
// inside the phases.
type Optimizer struct {
	cfg     Config
	ev      *routing.Evaluator
	rng     *rand.Rand
	failLow int32 // smallest weight of a failure-like perturbation
}

// New returns an optimizer for the evaluator with the given
// configuration.
func New(ev *routing.Evaluator, cfg Config) *Optimizer {
	if cfg.WMax < 2 {
		panic("opt: WMax must be at least 2")
	}
	return &Optimizer{
		cfg:     cfg,
		ev:      ev,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		failLow: int32(math.Ceil(cfg.Q * float64(cfg.WMax))),
	}
}

// Evaluator returns the evaluator the optimizer works on.
func (o *Optimizer) Evaluator() *routing.Evaluator { return o.ev }

// Config returns the configuration in use.
func (o *Optimizer) Config() Config { return o.cfg }

// Phase1Result carries everything Phase 1 produces: the best
// normal-conditions solution (the paper's Λ*, Φ* benchmarks), the
// acceptable-solution pool, and the criticality sampler state.
type Phase1Result struct {
	// BestW is the best weight setting found; Best its evaluation.
	BestW *routing.WeightSetting
	Best  routing.Result
	// Pool holds recorded acceptable settings (Phase 2 starting points),
	// already filtered against the final benchmarks.
	Pool []PoolEntry
	// Sampler holds the failure-like cost samples; Tracker the
	// convergence state; Converged whether S_Λ and S_Φ are within e.
	Sampler   *core.Sampler
	Tracker   *core.ConvergenceTracker
	Converged bool
	Stats     Stats
}

// sampleGate implements the relaxed acceptability of Section IV-D1: the
// pre-perturbation state must be within z·B1 of the best delay cost and
// within (1+χ)× the best throughput cost.
func (o *Optimizer) sampleGate(cur, best cost.Cost) bool {
	return cur.Lambda <= best.Lambda+o.cfg.Z*o.ev.Params().B1+1e-12 &&
		cur.Phi <= (1+o.cfg.Chi)*best.Phi+1e-12
}

// poolGate is the stricter recording condition of Eqs. (5)-(6) against
// the best-so-far benchmarks.
func (o *Optimizer) poolGate(cand, best cost.Cost) bool {
	return cand.SameLambda(best) && cand.Phi <= (1+o.cfg.Chi)*best.Phi+1e-12
}

// relGain measures the relative improvement from prev to cur for the
// low-gain diversification test: any Λ reduction counts as full gain;
// with Λ unchanged the Φ reduction is measured relatively.
func relGain(prev, cur cost.Cost) float64 {
	if cur.Lambda < prev.Lambda-1e-9 {
		return 1
	}
	if prev.Phi <= 0 {
		return 0
	}
	g := (prev.Phi - cur.Phi) / prev.Phi
	if g < 0 {
		return 0
	}
	return g
}

// rawSample is one harvested failure-like observation: the cost measured
// with link's weights forced high, plus the pre-perturbation cost the
// acceptability gate will be re-checked against once the final Phase 1
// benchmarks are known.
type rawSample struct {
	link int32
	c    cost.Cost
	gate cost.Cost
}

// maxRawSamples bounds the harvest buffer; beyond it, reservoir sampling
// keeps a uniform subset (only reachable at paper-scale budgets).
const maxRawSamples = 1 << 18

// RunPhase1 performs the regular optimization: a local search that
// randomly re-draws both weights of each link, accepts improvements,
// diversifies from fresh random settings on stagnation, and stops after
// P1 consecutive diversifications with below-c improvement. Along the
// way it harvests failure-like perturbations for the criticality
// estimate and records acceptable settings.
//
// Harvested samples are admitted to the criticality sampler only if
// their pre-perturbation cost passes the relaxed gate against the FINAL
// Λ*, Φ* benchmarks, not just the moving best at harvest time. The paper
// gates against the moving best; over its long runs the distinction
// vanishes (almost all samples arrive when the moving best is final),
// but at reduced budgets re-gating keeps early junk routings from
// polluting the conditional distribution the criticality definition
// requires.
func (o *Optimizer) RunPhase1() *Phase1Result {
	start := time.Now()
	m := o.ev.Graph().NumLinks()
	cfg := o.cfg

	pl := newPool(cfg.PoolCap)
	var raw []rawSample
	rawSeen := 0
	harvestRng := rand.New(rand.NewSource(cfg.Seed + 1))

	// The search runs on an incremental Session by default: Apply
	// re-evaluates only the destinations a move can affect, Revert undoes
	// a rejected move exactly, and every result is bit-identical to the
	// from-scratch path (cfg.FullEval), so both modes take the same
	// decisions move for move.
	var ses *routing.Session
	if !cfg.FullEval {
		ses = o.ev.NewSession(nil, -1)
		ses.SetParallelism() // the search drives this one session alone
	}
	// One root span for the whole phase; the search session hangs its
	// per-update spans off it (no-op until a recorder is enabled).
	var root *obsv.Span
	if mm := met.Get(); mm != nil {
		root = mm.reg.Spans().Start("opt.phase1")
	}
	if ses != nil {
		ses.SetSpanContext(root.TraceID(), root.ID())
	}
	w := routing.RandomWeightSetting(m, cfg.WMax, o.rng)
	var cur, cand routing.Result
	evals := 0
	if ses != nil {
		cur = ses.Init(w)
	} else {
		o.ev.EvaluateNormal(w, &cur)
	}
	evals++
	best := cur.Cost
	bestW := w.Clone()
	pl.consider(w, cur.Cost)

	lowGain := 0
	iter := 0
	sinceImprove := 0
	roundStartBest := best
	progress := phaseProgress{phase: 1, start: start}

	for lowGain < cfg.P1 && (cfg.MaxIter1 == 0 || iter < cfg.MaxIter1) {
		iter++
		improved := false
		for _, l := range o.rng.Perm(m) {
			wd := int32(1 + o.rng.Intn(cfg.WMax))
			wt := int32(1 + o.rng.Intn(cfg.WMax))
			harvest := wd >= o.failLow && wt >= o.failLow && o.sampleGate(cur.Cost, best)
			gate := cur.Cost
			prevD, prevT := w.Set(l, wd, wt)
			if ses != nil {
				cand = ses.Apply(l, wd, wt)
			} else {
				o.ev.EvaluateNormal(w, &cand)
			}
			evals++
			if harvest {
				s := rawSample{link: int32(l), c: cand.Cost, gate: gate}
				rawSeen++
				if len(raw) < maxRawSamples {
					raw = append(raw, s)
				} else if j := harvestRng.Intn(rawSeen); j < maxRawSamples {
					raw[j] = s
				}
			}
			if cand.Cost.Less(cur.Cost) {
				cur = cand
				improved = true
				if cand.Cost.Less(best) {
					best = cand.Cost
					bestW.CopyFrom(w)
				}
				if o.poolGate(cand.Cost, best) {
					pl.consider(w, cand.Cost)
				}
			} else {
				w.Set(l, prevD, prevT)
				if ses != nil {
					ses.Revert()
				}
			}
		}
		if improved {
			sinceImprove = 0
		} else {
			sinceImprove++
		}
		if sinceImprove >= cfg.Div1Interval {
			// Diversification: assess the gain realized since the last
			// restart, then restart from a fresh random setting.
			if relGain(roundStartBest, best) < cfg.CFrac {
				lowGain++
			} else {
				lowGain = 0
			}
			roundStartBest = best
			w = routing.RandomWeightSetting(m, cfg.WMax, o.rng)
			if ses != nil {
				cur = ses.Init(w)
			} else {
				o.ev.EvaluateNormal(w, &cur)
			}
			evals++
			sinceImprove = 0
		}
		progress.publish(iter, evals)
	}
	progress.publish(iter, evals)
	root.SetAttr("iterations", int64(iter))
	root.SetAttr("evals", int64(evals))
	root.End()

	// Re-gate the harvest against the final benchmarks and build the
	// criticality sampler from the surviving samples.
	sampler := core.NewSampler(m, cfg.LeftTailFrac, rand.New(rand.NewSource(cfg.Seed+2)))
	tracker := core.NewConvergenceTracker(m)
	tracker.Tau = cfg.Tau
	tracker.Threshold = cfg.ConvThreshold
	for _, s := range raw {
		if o.sampleGate(s.gate, best) {
			sampler.Add(int(s.link), s.c)
		}
	}
	converged := false
	if sampler.Total() >= cfg.Tau*m {
		// Establish the rank baseline; convergence can only be declared
		// by a later check in Phase 1b.
		tracker.Check(sampler.Estimate(), sampler.Total())
	}

	res := &Phase1Result{
		BestW:     bestW,
		Sampler:   sampler,
		Tracker:   tracker,
		Converged: converged,
		Stats:     Stats{Iterations: iter, Evaluations: evals, Duration: time.Since(start)},
	}
	o.ev.EvaluateNormal(bestW, &res.Best)
	res.Pool = pl.filtered(best, cfg.Chi)
	if len(res.Pool) == 0 {
		res.Pool = []PoolEntry{{W: bestW.Clone(), Normal: best}}
	}
	return res
}

// TopUpSamples is Phase 1b: complete the per-link failure-cost
// distributions.
//
// In the default exact mode (Config.ExactPhase1b), the harvest-based
// estimate is replaced by the exact conditional distribution over the
// recorded acceptable routings: every (pool entry, link) pair is
// evaluated with the link genuinely removed — the paper's
// "infinite-weight" limit of its emulation — in parallel, on revertible
// worker sessions unless FullEval is set. The resulting estimate is
// final, so Converged is set.
//
// In emulation mode (the paper-faithful variant kept for the q
// ablation), it keeps generating failure-like weight perturbations of
// pooled settings — τ per link per batch — until the criticality
// rankings converge or the batch budget runs out.
//
// Either way the evaluations count into Stats.Evaluations and the
// phase-1 evaluation counter, under one opt.phase1b root span.
func (o *Optimizer) TopUpSamples(p1 *Phase1Result) {
	if !o.cfg.ExactPhase1b && p1.Converged {
		return
	}
	start := time.Now()
	mm := met.Get()
	var root *obsv.Span
	if mm != nil {
		root = mm.reg.Spans().Start("opt.phase1b")
	}
	var evals int
	if o.cfg.ExactPhase1b {
		evals = o.exactPhase1b(p1)
	} else {
		evals = o.emulatePhase1b(p1)
	}
	p1.Stats.Evaluations += evals
	p1.Stats.Duration += time.Since(start)
	if mm != nil {
		mm.p1Evals.Add(int64(evals))
	}
	root.SetAttr("entries", int64(len(p1.Pool)))
	root.SetAttr("links", int64(o.ev.Graph().NumLinks()))
	root.SetAttr("evals", int64(evals))
	root.End()
}

// emulatePhase1b runs emulation-mode sampling batches until the
// rankings converge or the batch budget runs out, and returns the
// evaluation count.
func (o *Optimizer) emulatePhase1b(p1 *Phase1Result) int {
	cfg := o.cfg
	m := o.ev.Graph().NumLinks()
	span := int(int32(cfg.WMax) - o.failLow + 1)

	type task struct {
		entry  int
		link   int
		wd, wt int32
	}
	tasks := make([]task, 0, cfg.Tau*m)
	results := make([]cost.Cost, cfg.Tau*m)
	ws := make([]*routing.WeightSetting, runtime.GOMAXPROCS(0)) // per-worker scratch
	batches, evals := 0, 0
	for !p1.Converged && (cfg.MaxTopUpBatches == 0 || batches < cfg.MaxTopUpBatches) {
		batches++
		tasks = tasks[:0]
		for k := 0; k < cfg.Tau; k++ {
			for l := 0; l < m; l++ {
				tasks = append(tasks, task{
					entry: o.rng.Intn(len(p1.Pool)),
					link:  l,
					wd:    o.failLow + int32(o.rng.Intn(span)),
					wt:    o.failLow + int32(o.rng.Intn(span)),
				})
			}
		}
		par.Do(len(ws), len(tasks), func(wk, i int) {
			if ws[wk] == nil {
				ws[wk] = routing.NewWeightSetting(m)
			}
			w, t := ws[wk], tasks[i]
			w.CopyFrom(p1.Pool[t.entry].W)
			w.Set(t.link, t.wd, t.wt)
			var r routing.Result
			o.ev.EvaluateNormal(w, &r)
			results[i] = r.Cost
		})
		for i, t := range tasks {
			p1.Sampler.Add(t.link, results[i])
		}
		evals += len(tasks)
		_, _, p1.Converged = p1.Tracker.Check(p1.Sampler.Estimate(), p1.Sampler.Total())
	}
	return evals
}

// exactPhase1b rebuilds the sampler from true single-link-failure
// evaluations of every acceptable pool entry and returns the evaluation
// count. Each (entry, link) pair owns one result slot and the sampler is
// filled from the slots in ascending order, so the samples do not depend
// on how the work was spread.
//
// By default the failures are probed on incremental sessions (see
// sessionPhase1b), which the session contract makes bit-identical to
// the from-scratch EvaluateLinkFailure sweep; that sweep remains the
// FullEval oracle and the fallback when not even one session fits
// Config.SessionBudgetBytes.
func (o *Optimizer) exactPhase1b(p1 *Phase1Result) int {
	m := o.ev.Graph().NumLinks()
	entries := p1.Pool
	results := make([]cost.Cost, len(entries)*m)
	workers := min(int64(runtime.GOMAXPROCS(0)), o.sessionBudget()/o.ev.SessionBytes())
	if !o.cfg.FullEval && workers > 0 {
		o.sessionPhase1b(entries, int(workers), results)
	} else {
		par.Do(runtime.GOMAXPROCS(0), len(results), func(_, i int) {
			var r routing.Result
			o.ev.EvaluateLinkFailure(entries[i/m].W, i%m, o.cfg.FailBoth, &r)
			results[i] = r.Cost
		})
	}
	sampler := core.NewSampler(m, o.cfg.LeftTailFrac, rand.New(rand.NewSource(o.cfg.Seed+3)))
	for i, c := range results {
		sampler.Add(i%m, c)
	}
	p1.Sampler = sampler
	p1.Converged = true
	return len(results)
}

// sessionPhase1b fills results[entry*m+link] with the cost of each pool
// entry under each single-link failure on up to k worker sessions. A
// worker Inits its session once per pool entry, then for each link
// takes it down with SetLinkStates (both directions under FailBoth),
// records the Result and Reverts, so every failure costs a batch repair
// of the affected destinations instead of a from-scratch evaluation.
// Pool entries are the tasks; with fewer entries than workers, each
// entry splits into link blocks so every worker gets one. The sessions
// stay span-silent, like Phase 2's scenario sessions.
func (o *Optimizer) sessionPhase1b(entries []PoolEntry, k int, results []cost.Cost) {
	g := o.ev.Graph()
	m := g.NumLinks()
	type task struct{ entry, lo, hi int }
	blocks := 1
	if n := len(entries); n > 0 && n < k {
		blocks = min((k+n-1)/n, m)
	}
	size := (m + blocks - 1) / blocks
	tasks := make([]task, 0, len(entries)*blocks)
	for e := range entries {
		for lo := 0; lo < m; lo += size {
			tasks = append(tasks, task{e, lo, min(lo+size, m)})
		}
	}
	type worker struct {
		ses   *routing.Session
		entry int // the pool entry ses is based on
		down  []routing.LinkStateChange
	}
	wks := make([]worker, k)
	par.Do(k, len(tasks), func(w, i int) {
		wk, t := &wks[w], tasks[i]
		if wk.ses == nil {
			wk.ses, wk.entry = o.ev.NewSession(graph.NewMask(g), -1), -1
		}
		if t.entry != wk.entry {
			wk.ses.Init(entries[t.entry].W)
			wk.entry = t.entry
		}
		for l := t.lo; l < t.hi; l++ {
			wk.down = append(wk.down[:0], routing.LinkStateChange{Link: l})
			if r := g.Link(l).Reverse; o.cfg.FailBoth && r >= 0 {
				wk.down = append(wk.down, routing.LinkStateChange{Link: r})
			}
			results[t.entry*m+l] = wk.ses.SetLinkStates(wk.down).Cost
			wk.ses.Revert()
		}
	})
}

// SelectCritical is Phase 1c: estimate criticality from the samples and
// return the critical link set of size frac·|E| (at least 1).
func (o *Optimizer) SelectCritical(p1 *Phase1Result, frac float64) []int {
	m := o.ev.Graph().NumLinks()
	n := int(math.Round(frac * float64(m)))
	if n < 1 {
		n = 1
	}
	return core.Select(p1.Sampler.Estimate(), n)
}

// SelectCriticalWeighted is SelectCritical under the probabilistic
// failure model: per-link criticality is scaled by the link's failure
// probability (expected regret) before Algorithm 1 runs, so links that
// rarely fail rarely make the critical set.
func (o *Optimizer) SelectCriticalWeighted(p1 *Phase1Result, frac float64, probs []float64) []int {
	m := o.ev.Graph().NumLinks()
	n := int(math.Round(frac * float64(m)))
	if n < 1 {
		n = 1
	}
	sel := core.Select(core.ScaleByProbs(p1.Sampler.Estimate(), probs), n)
	// Algorithm 1 pads the set to n with zero-criticality links; under
	// the probabilistic model a zero-probability scenario can never
	// contribute to the objective, so drop them rather than spend
	// Phase 2 budget evaluating them.
	out := sel[:0]
	for _, l := range sel {
		if probs[l] > 0 {
			out = append(out, l)
		}
	}
	return out
}
