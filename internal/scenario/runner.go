package scenario

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/routing"
)

// metrics is the package's handle bundle against the default obsv
// registry; met.Get() is nil (one atomic load) while telemetry is off.
type metrics struct {
	reg         *obsv.Registry // for live Spans() lookups
	evals       *obsv.Counter
	evalSeconds *obsv.Histogram
}

var met = obsv.NewView(func(r *obsv.Registry) *metrics {
	return &metrics{
		reg: r,
		evals: r.Counter("scenario_evals_total",
			"Scenario evaluations completed by the runner pool."),
		evalSeconds: r.Histogram("scenario_eval_seconds",
			"Wall time per scenario evaluation.", obsv.LatencyBuckets),
	}
})

// Runner evaluates scenario sets on GOMAXPROCS workers (GOMAXPROCS=1
// runs a set serially on the calling goroutine). Each worker owns one
// reusable failure mask; per-evaluation scratch buffers come from the
// Evaluator's pool, so steady state holds exactly one scratch per
// worker.
type Runner struct{}

// Result pairs a scenario's name with its evaluation.
type Result struct {
	Name string
	routing.Result
}

// Summary aggregates a scenario sweep the way the paper reports
// robustness, plus worst-case and percentile SLA metrics for richer
// scenario sets.
type Summary struct {
	// Scenarios is the number of scenarios evaluated.
	Scenarios int
	// TotalViolations sums SLA violations over all scenarios;
	// AvgViolations divides by the scenario count (the paper's β).
	TotalViolations int
	AvgViolations   float64
	// Top10Violations is the mean violation count over the worst 10% of
	// scenarios (at least one) — the paper's tail metric.
	Top10Violations float64
	// WorstViolations and WorstScenario identify the worst case. Ties go
	// to the earliest scenario.
	WorstViolations int
	WorstScenario   string
	// ViolationsP50/P95 are nearest-rank percentiles of the per-scenario
	// violation counts.
	ViolationsP50, ViolationsP95 float64
	// Overloaded counts scenarios driving some alive link past capacity;
	// Disconnected counts scenarios that strand at least one delay pair.
	Overloaded   int
	Disconnected int
	// MaxUtilP50/P95/Worst summarize the per-scenario peak utilization.
	MaxUtilP50, MaxUtilP95, WorstMaxUtil float64
	// TotalCost compounds Λ and Φ over all scenarios (Eq. 4's failure
	// cost for an unweighted set).
	TotalCost cost.Cost
}

// Report is the outcome of running one scenario set.
type Report struct {
	// Set names the scenario set.
	Set string
	// Results holds per-scenario outcomes in set order, regardless of
	// which worker evaluated them.
	Results []Result

	summary *Summary
}

// Summary computes the report's aggregates on first use and caches
// them. Callers that only consume Results never pay for the
// aggregation.
func (r *Report) Summary() Summary {
	if r.summary == nil {
		s := summarize(r.Results)
		r.summary = &s
	}
	return *r.summary
}

// Run evaluates w under every scenario of the set and aggregates a
// report. Results are deterministic and independent of the worker
// count: each scenario owns its output slot and is evaluated from the
// same immutable inputs.
func (Runner) Run(ev *routing.Evaluator, w *routing.WeightSetting, set Set) *Report {
	n := len(set.Scenarios)
	results := make([]Result, n)
	m := met.Get() // one fetch per Run; workers share the handles
	var sp *obsv.Span
	if m != nil {
		sp = m.reg.Spans().Start("scenario.run")
		sp.SetAttr("scenarios", int64(n))
	}
	masks := make([]*graph.Mask, runtime.GOMAXPROCS(0)) // one per worker
	workers := par.Do(len(masks), n, func(wk, i int) {
		if masks[wk] == nil {
			masks[wk] = graph.NewMask(ev.Graph())
		}
		mask, sc := masks[wk], set.Scenarios[i]
		mask.Reset()
		skip, demD, demT := sc.Apply(mask)
		results[i].Name = sc.Name()
		if m != nil {
			t0 := time.Now()
			ev.EvaluateDemands(w, mask, skip, demD, demT, &results[i].Result)
			m.evalSeconds.ObserveSince(t0)
			m.evals.Inc()
		} else {
			ev.EvaluateDemands(w, mask, skip, demD, demT, &results[i].Result)
		}
	})
	sp.SetAttr("workers", int64(workers))
	sp.End()

	return &Report{Set: set.Name, Results: results}
}

func summarize(results []Result) Summary {
	s := Summary{Scenarios: len(results)}
	if len(results) == 0 {
		return s
	}
	viol := make([]float64, len(results))
	utils := make([]float64, len(results))
	s.WorstViolations = -1
	for i := range results {
		res := &results[i].Result
		viol[i] = float64(res.Violations)
		utils[i] = res.MaxUtil
		s.TotalViolations += res.Violations
		s.TotalCost = s.TotalCost.Add(res.Cost)
		if res.Violations > s.WorstViolations {
			s.WorstViolations = res.Violations
			s.WorstScenario = results[i].Name
		}
		if res.MaxUtil > 1 {
			s.Overloaded++
		}
		if res.MaxUtil > s.WorstMaxUtil {
			s.WorstMaxUtil = res.MaxUtil
		}
		if res.Disconnected > 0 {
			s.Disconnected++
		}
	}
	s.AvgViolations = float64(s.TotalViolations) / float64(len(results))

	sort.Float64s(viol)
	sort.Float64s(utils)
	// Mean over the worst ~10% of scenarios (at least one).
	k := len(viol) / 10
	if k == 0 {
		k = 1
	}
	var top float64
	for _, v := range viol[len(viol)-k:] {
		top += v
	}
	s.Top10Violations = top / float64(k)
	s.ViolationsP50 = percentile(viol, 0.50)
	s.ViolationsP95 = percentile(viol, 0.95)
	s.MaxUtilP50 = percentile(utils, 0.50)
	s.MaxUtilP95 = percentile(utils, 0.95)
	return s
}

// percentile returns the nearest-rank p-percentile of ascending-sorted
// values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
