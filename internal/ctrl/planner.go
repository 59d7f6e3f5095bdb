package ctrl

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/obsv"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// PlanConfig parameterizes the migration planner.
type PlanConfig struct {
	// MaxChanges bounds how many links the plan may rewrite (the
	// paper's flexibility budget). 0 or negative means unbounded.
	MaxChanges int
	// ViolationSlack tolerates intermediate states whose SLA violation
	// count exceeds max(start, target) by up to this much. 0 demands
	// every step stay within the envelope of the two endpoints.
	ViolationSlack int
	// Trace and Parent, when non-zero, attach the planner's span to an
	// existing trace (typically the Selector's last observe root) so the
	// observe → advise → plan chain shares one trace ID.
	Trace, Parent uint64
}

// PlanStep is one link rewrite of a migration plan.
type PlanStep struct {
	// Link is the rewritten directed link; Delay and Throughput its new
	// class weights.
	Link              int
	Delay, Throughput int32
	// Result is the network state after this step under the planning
	// conditions, bit-identical to a from-scratch evaluation of the
	// intermediate weight setting.
	Result routing.Result
}

// Plan is an ordered, verified migration from one weight setting toward
// another.
type Plan struct {
	// Steps are the link rewrites in apply order, each verified
	// loop-free when planned: a failed check aborts planning.
	Steps []PlanStep
	// Complete reports whether the plan reaches the target exactly.
	// When false the plan is a stage: Remaining counts the diff links
	// left for a later stage (budget bound), and Blocked reports that
	// planning stopped because no SLA-feasible next step existed.
	Complete  bool
	Remaining int
	Blocked   bool
	// Start and Target are the endpoint evaluations under the planning
	// conditions; Final is the state after the last planned step
	// (equal to Target when Complete).
	Start, Target, Final routing.Result
}

// PlanMigration computes a bounded-change migration from cur to tgt
// under the given conditions (failure mask, optional demand overrides;
// the mask is read, never mutated). The change set is the minimal diff
// — only links whose weights differ are touched — and the apply order
// is chosen greedily: at every step the planner scores every remaining
// rewrite on a persistent session (incremental Apply/Revert, so a
// candidate costs far less than a full evaluation), discards candidates
// that break the SLA feasibility envelope, and commits the one with the
// best resulting objective. Every committed step is SLA-evaluated and
// independently verified loop-free.
//
// When cfg.MaxChanges binds, the result is a staged partial migration:
// the best MaxChanges-step prefix the greedy order found, with
// Remaining counting what a later stage still has to rewrite. If at
// some step no remaining rewrite is feasible, the plan stops there with
// Blocked set.
func PlanMigration(ev *routing.Evaluator, cur, tgt *routing.WeightSetting, mask *graph.Mask, demD, demT *traffic.Matrix, cfg PlanConfig) (*Plan, error) {
	m := ev.Graph().NumLinks()
	if cur.Len() != m || tgt.Len() != m {
		return nil, fmt.Errorf("ctrl: weight settings cover %d/%d links, network has %d", cur.Len(), tgt.Len(), m)
	}

	var diff []int
	for l := 0; l < m; l++ {
		if cur.Delay[l] != tgt.Delay[l] || cur.Throughput[l] != tgt.Throughput[l] {
			diff = append(diff, l)
		}
	}

	met := met.Get()
	var sp *obsv.Span
	if met != nil {
		// The scoring session below stays span-silent (no SetSpanContext):
		// its hundreds of Apply/Revert probes per step would flood the ring
		// and evict the observe tree the plan span hangs from.
		sp = met.reg.Spans().StartAt("plan", cfg.Trace, cfg.Parent)
		sp.SetAttr("diff", int64(len(diff)))
	}

	ses := ev.NewScenarioSession(mask, -1, demD, demT)
	ses.SetParallelism() // the planner drives this one session alone
	plan := &Plan{Start: ses.Init(cur)}
	ev.EvaluateDemands(tgt, mask, -1, demD, demT, &plan.Target)
	plan.Final = plan.Start

	// The feasibility envelope: no intermediate step may violate more
	// pairs than the worse endpoint (plus slack) or strand pairs neither
	// endpoint strands.
	violBound := max(plan.Start.Violations, plan.Target.Violations) + cfg.ViolationSlack
	discBound := max(plan.Start.Disconnected, plan.Target.Disconnected)

	budget := cfg.MaxChanges
	if budget <= 0 || budget > len(diff) {
		budget = len(diff)
	}

	w := cur.Clone()
	remaining := append([]int(nil), diff...)
	for step := 0; step < budget; step++ {
		bestIdx := -1
		var bestRes routing.Result
		for idx, l := range remaining {
			res := ses.Apply(l, tgt.Delay[l], tgt.Throughput[l])
			ses.Revert()
			if res.Violations > violBound || res.Disconnected > discBound {
				continue
			}
			if bestIdx < 0 || res.Cost.Less(bestRes.Cost) {
				bestIdx, bestRes = idx, res
			}
		}
		if bestIdx < 0 {
			plan.Blocked = true
			break
		}
		l := remaining[bestIdx]
		ses.Apply(l, tgt.Delay[l], tgt.Throughput[l])
		w.Set(l, tgt.Delay[l], tgt.Throughput[l])
		if err := VerifyLoopFree(ev.Graph(), w, mask); err != nil {
			sp.SetAttr("steps", int64(len(plan.Steps)))
			sp.SetAttr("verify_failed", 1)
			sp.End()
			return nil, fmt.Errorf("ctrl: step %d (link %d): %w", len(plan.Steps), l, err)
		}
		plan.Steps = append(plan.Steps, PlanStep{Link: l, Delay: tgt.Delay[l], Throughput: tgt.Throughput[l], Result: bestRes})
		plan.Final = bestRes
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	plan.Remaining = len(remaining)
	plan.Complete = len(remaining) == 0
	sp.SetAttr("steps", int64(len(plan.Steps)))
	if plan.Blocked {
		sp.SetAttr("blocked", 1)
	}
	sp.End()
	if met != nil {
		met.plans.Inc()
		met.planSteps.Observe(float64(len(plan.Steps)))
		msg := fmt.Sprintf("%d steps, complete=%v remaining=%d blocked=%v trace=%d",
			len(plan.Steps), plan.Complete, plan.Remaining, plan.Blocked, cfg.Trace)
		met.trace.Record("plan", msg)
		if plan.Blocked {
			fr := met.reg.Flight()
			fr.Capture(obsv.FlightRecord{
				Trace:  cfg.Trace,
				Kind:   "plan",
				Reason: "infeasible",
				Detail: msg,
				Spans:  met.reg.Spans().TraceSpans(cfg.Trace),
			})
		}
	}
	return plan, nil
}
