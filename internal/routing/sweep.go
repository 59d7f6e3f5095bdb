package routing

import (
	"runtime"

	"repro/internal/cost"
	"repro/internal/par"
)

// FailureSummary aggregates a set of failure-scenario results the way the
// paper reports them.
type FailureSummary struct {
	// Total is the compounded cost over all scenarios: Λ_fail and Φ_fail.
	Total cost.Cost
	// TotalViolations sums SLA violations over all scenarios; Avg divides
	// by the scenario count (the paper's β metric).
	TotalViolations int
	Avg             float64
	// Top10Avg is the mean violation count over the worst 10% of
	// scenarios (at least one).
	Top10Avg float64
	// PerScenario holds the individual results in scenario order.
	PerScenario []Result
}

// SweepLinkFailures evaluates w under the failure of every listed
// directed link, in parallel, and returns per-scenario results in the
// same order as links. When both is set each scenario also takes down the
// reverse link.
func (e *Evaluator) SweepLinkFailures(w *WeightSetting, links []int, both bool, results []Result) {
	par.Do(runtime.GOMAXPROCS(0), len(links), func(_, i int) {
		e.EvaluateLinkFailure(w, links[i], both, &results[i])
	})
}

// SweepNodeFailures evaluates w under the failure of every listed node,
// in parallel.
func (e *Evaluator) SweepNodeFailures(w *WeightSetting, nodes []int, results []Result) {
	par.Do(runtime.GOMAXPROCS(0), len(nodes), func(_, i int) {
		e.EvaluateNodeFailure(w, nodes[i], &results[i])
	})
}

// SumFailureCosts compounds the costs of a sweep (Eq. 4's Λ_fail, Φ_fail
// summed over scenarios).
func SumFailureCosts(results []Result) cost.Cost {
	var total cost.Cost
	for i := range results {
		total = total.Add(results[i].Cost)
	}
	return total
}

// Summarize computes the paper's reporting aggregates from per-scenario
// results. It keeps (aliases) the results slice.
func Summarize(results []Result) FailureSummary {
	s := FailureSummary{PerScenario: results}
	if len(results) == 0 {
		return s
	}
	viol := make([]int, len(results))
	for i := range results {
		s.Total = s.Total.Add(results[i].Cost)
		viol[i] = results[i].Violations
		s.TotalViolations += results[i].Violations
	}
	s.Avg = float64(s.TotalViolations) / float64(len(results))
	// Mean of the worst ~10% scenarios by violation count.
	k := len(results) / 10
	if k == 0 {
		k = 1
	}
	// Partial selection via simple sort of a copy (scenario counts are
	// small: at most a few hundred).
	sortedDesc(viol)
	sum := 0
	for i := 0; i < k; i++ {
		sum += viol[i]
	}
	s.Top10Avg = float64(sum) / float64(k)
	return s
}

func sortedDesc(v []int) {
	// Insertion sort: scenario lists are short and this avoids pulling in
	// sort for a hot path... they are not hot, but it keeps Summarize
	// allocation-free beyond the copy its caller already made.
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] > v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// AllLinks returns 0..m-1, the scenario list for "all single link
// failures".
func (e *Evaluator) AllLinks() []int {
	links := make([]int, e.g.NumLinks())
	for i := range links {
		links[i] = i
	}
	return links
}

// AllNodes returns 0..n-1, the scenario list for "all single node
// failures".
func (e *Evaluator) AllNodes() []int {
	nodes := make([]int, e.g.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}
