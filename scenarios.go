package repro

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/traffic"
)

// ScenarioSet is a named collection of perturbation scenarios — link
// failures, shared-risk-group outages, node failures, traffic surges —
// bound to the network whose topology and traffic generated it. Build
// sets with the Network scenario builders, combine them with
// MergeScenarios, and evaluate a routing against them with RunScenarios.
type ScenarioSet struct {
	set scenario.Set
	net *Network
}

// Name returns the set's name.
func (s *ScenarioSet) Name() string { return s.set.Name }

// Size returns the scenario count.
func (s *ScenarioSet) Size() int { return s.set.Size() }

// ScenarioNames lists the scenario names in evaluation order.
func (s *ScenarioSet) ScenarioNames() []string {
	names := make([]string, s.set.Size())
	for i, sc := range s.set.Scenarios {
		names[i] = sc.Name()
	}
	return names
}

// SingleLinkFailureScenarios enumerates every single directed link
// failure — the paper's canonical robustness set.
func (n *Network) SingleLinkFailureScenarios() *ScenarioSet {
	return &ScenarioSet{set: scenario.SingleLinkFailures(n.g), net: n}
}

// DualLinkFailureScenarios samples count scenarios of two distinct
// directed links failing together, deterministically in seed.
func (n *Network) DualLinkFailureScenarios(count int, seed int64) *ScenarioSet {
	return &ScenarioSet{set: scenario.DualLinkFailures(n.g, count, seed), net: n}
}

// SRLGScenarios derives shared-risk link groups from topology locality
// (links running through the same area fail together, both directions)
// and returns one scenario per group of two or more physical edges.
func (n *Network) SRLGScenarios() *ScenarioSet {
	return &ScenarioSet{set: scenario.SRLGFailures(n.g, 0), net: n}
}

// NodeFailureScenarios enumerates every single node failure, with the
// failed node's traffic removed.
func (n *Network) NodeFailureScenarios() *ScenarioSet {
	return &ScenarioSet{set: scenario.NodeFailures(n.g), net: n}
}

// HotspotSurgeScenarios draws count independent hot-spot traffic surges
// (the paper's sporadic-incident model: 10% servers, 50% clients,
// factors U[2,6]) on the intact topology, deterministically in seed.
func (n *Network) HotspotSurgeScenarios(download bool, count int, seed int64) *ScenarioSet {
	h := traffic.DefaultHotspot(download)
	return &ScenarioSet{set: scenario.HotspotSurges(n.demD, n.demT, h, count, seed), net: n}
}

// TrafficScaleScenarios scales all demands of both classes by each
// factor on the intact topology — the headroom sweep.
func (n *Network) TrafficScaleScenarios(factors ...float64) *ScenarioSet {
	return &ScenarioSet{set: scenario.UniformSurges(n.demD, n.demT, factors...), net: n}
}

// MergeScenarios concatenates sets built from this network into one
// named set, preserving order. At least one set must be given.
func (n *Network) MergeScenarios(name string, sets ...*ScenarioSet) (*ScenarioSet, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("repro: MergeScenarios %q: no scenario sets given", name)
	}
	parts := make([]scenario.Set, len(sets))
	for i, s := range sets {
		if s == nil {
			return nil, fmt.Errorf("repro: nil scenario set at position %d", i)
		}
		if s.net != n {
			return nil, fmt.Errorf("repro: scenario set %q was built from a different network", s.Name())
		}
		parts[i] = s.set
	}
	return &ScenarioSet{set: scenario.Merge(name, parts...), net: n}, nil
}

// ScenarioResult pairs a scenario's name with its evaluation.
type ScenarioResult struct {
	Name string
	Evaluation
}

// ScenarioReport aggregates a scenario sweep: per-scenario results plus
// the violation, overload and percentile metrics of the set.
type ScenarioReport struct {
	// Set names the scenario set; Scenarios is its size.
	Set       string
	Scenarios int
	// PerScenario holds each scenario's evaluation, in set order.
	PerScenario []ScenarioResult
	// TotalViolations sums SLA violations over all scenarios;
	// AvgViolations divides by the scenario count (the paper's β);
	// Top10Violations averages the worst 10% of scenarios.
	TotalViolations                int
	AvgViolations, Top10Violations float64
	// WorstViolations and WorstScenario identify the worst case.
	WorstViolations int
	WorstScenario   string
	// ViolationsP50 and ViolationsP95 are percentile violation counts.
	ViolationsP50, ViolationsP95 float64
	// Overloaded counts scenarios pushing some link past capacity;
	// Disconnected counts scenarios stranding at least one delay pair.
	Overloaded, Disconnected int
	// MaxUtilP50, MaxUtilP95 and WorstMaxUtil summarize per-scenario
	// peak link utilization.
	MaxUtilP50, MaxUtilP95, WorstMaxUtil float64
	// TotalDelayCost and TotalThroughputCost compound Λ and Φ over all
	// scenarios.
	TotalDelayCost, TotalThroughputCost float64
}

// RunScenarios evaluates the routing under every scenario of the set,
// fanning the work across all CPUs. Results are deterministic: the same
// network, set and routing always produce the same report, regardless
// of parallelism.
func (n *Network) RunScenarios(set *ScenarioSet, r *Routing) (*ScenarioReport, error) {
	if set == nil {
		return nil, fmt.Errorf("repro: nil scenario set")
	}
	if set.net != n {
		return nil, fmt.Errorf("repro: scenario set %q was built from a different network", set.Name())
	}
	if r == nil {
		return nil, fmt.Errorf("repro: nil routing")
	}
	if r.w.Len() != n.g.NumLinks() {
		return nil, fmt.Errorf("repro: routing covers %d links, network has %d", r.w.Len(), n.g.NumLinks())
	}
	rep := scenario.Runner{}.Run(n.ev, r.w, set.set)
	return toScenarioReport(rep), nil
}

func toScenarioReport(rep *scenario.Report) *ScenarioReport {
	s := rep.Summary()
	out := &ScenarioReport{
		Set:                 rep.Set,
		Scenarios:           s.Scenarios,
		TotalViolations:     s.TotalViolations,
		AvgViolations:       s.AvgViolations,
		Top10Violations:     s.Top10Violations,
		WorstViolations:     s.WorstViolations,
		WorstScenario:       s.WorstScenario,
		ViolationsP50:       s.ViolationsP50,
		ViolationsP95:       s.ViolationsP95,
		Overloaded:          s.Overloaded,
		Disconnected:        s.Disconnected,
		MaxUtilP50:          s.MaxUtilP50,
		MaxUtilP95:          s.MaxUtilP95,
		WorstMaxUtil:        s.WorstMaxUtil,
		TotalDelayCost:      s.TotalCost.Lambda,
		TotalThroughputCost: s.TotalCost.Phi,
	}
	out.PerScenario = make([]ScenarioResult, len(rep.Results))
	for i := range rep.Results {
		out.PerScenario[i] = ScenarioResult{
			Name:       rep.Results[i].Name,
			Evaluation: toEval(&rep.Results[i].Result),
		}
	}
	return out
}
