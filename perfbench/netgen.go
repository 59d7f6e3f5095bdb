package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// netSpec is one benchmark network: a RandTopo at the facade's default
// load and SLA, which is what dtrd builds from -nodes, -links and -seed.
type netSpec struct {
	nodes, links int
	seed         int64
}

func (s netSpec) facade() repro.NetworkSpec {
	return repro.NetworkSpec{Topology: "rand", Nodes: s.nodes, Links: s.links, Seed: s.seed}
}

// replica is the same network rebuilt through the internal packages,
// step for step as repro.NewNetwork builds it. The harness renders
// telemetry on it (the facade hides the graph and the demand matrices)
// and drives the per-layer calls of the traced run with it.
// checkReplica pins it to the facade network bit for bit.
type replica struct {
	spec       netSpec
	g          *graph.Graph
	demD, demT *traffic.Matrix
	ev         *routing.Evaluator
}

func newReplica(s netSpec) (*replica, error) {
	theta := 25.0
	rng := rand.New(rand.NewSource(s.seed))
	g, err := topogen.Generate(topogen.Spec{
		Kind:          topogen.RandKind,
		Nodes:         s.nodes,
		DirectedLinks: s.links,
		EdgesPerNode:  3,
		DiameterMs:    0.8 * theta,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("replica topology: %w", err)
	}
	demD, demT := traffic.Gravity(g.NumNodes(), 1, 0.3, rng)
	if _, err := routing.ScaleToAvgUtil(g, demD, demT, 0.43); err != nil {
		return nil, fmt.Errorf("replica traffic: %w", err)
	}
	ev := routing.NewEvaluator(g, demD, demT, cost.DefaultParams(), routing.WorstPath)
	return &replica{spec: s, g: g, demD: demD, demT: demT, ev: ev}, nil
}

// checkReplica compares the replica with the facade network: shape, and
// the uniform routing's score under normal conditions.
func checkReplica(r *replica, nw *repro.Network) error {
	if nw.Nodes() != r.g.NumNodes() || nw.Links() != r.g.NumLinks() {
		return fmt.Errorf("replica has %d nodes/%d links, facade %d/%d", r.g.NumNodes(), r.g.NumLinks(), nw.Nodes(), nw.Links())
	}
	var res routing.Result
	r.ev.EvaluateNormal(routing.NewWeightSetting(r.g.NumLinks()), &res)
	if got, want := evalOf(res), nw.UniformRouting().Evaluate(); !sameEval(got, want) {
		return fmt.Errorf("replica scores %+v under uniform weights, facade %+v", got, want)
	}
	return nil
}

// evalOf converts an engine result to the facade's evaluation, as the
// facade does.
func evalOf(res routing.Result) repro.Evaluation {
	return repro.Evaluation{
		SLAViolations:      res.Violations,
		Disconnected:       res.Disconnected,
		DelayCost:          res.Cost.Lambda,
		ThroughputCost:     res.Cost.Phi,
		ThroughputCostNorm: res.PhiNorm,
		MaxUtilization:     res.MaxUtil,
		AvgUtilization:     res.AvgUtil,
	}
}

// sameEval compares two evaluations bit for bit.
func sameEval(a, b repro.Evaluation) bool {
	return a.SLAViolations == b.SLAViolations && a.Disconnected == b.Disconnected &&
		math.Float64bits(a.DelayCost) == math.Float64bits(b.DelayCost) &&
		math.Float64bits(a.ThroughputCost) == math.Float64bits(b.ThroughputCost) &&
		math.Float64bits(a.ThroughputCostNorm) == math.Float64bits(b.ThroughputCostNorm) &&
		math.Float64bits(a.MaxUtilization) == math.Float64bits(b.MaxUtilization) &&
		math.Float64bits(a.AvgUtilization) == math.Float64bits(b.AvgUtilization)
}

// scenarioDay is the scenario day dtrd builds for a network at its
// default -dual and -surges: every single link failure, 6 dual-link
// outages and 3 hot-spot surges.
func (r *replica) scenarioDay() scenario.Set {
	seed := r.spec.seed
	return scenario.Merge("day",
		scenario.SingleLinkFailures(r.g),
		scenario.DualLinkFailures(r.g, 6, seed+1),
		scenario.HotspotSurges(r.demD, r.demT, traffic.DefaultHotspot(true), 3, seed+2))
}

// wire converts engine events to the /observe wire form.
func wire(events []scenario.Event, network string) []repro.ControlEvent {
	out := make([]repro.ControlEvent, len(events))
	for i, e := range events {
		ce := repro.ControlEvent{Network: network, Link: e.Link, Label: e.Label}
		switch e.Kind {
		case scenario.EventLinkDown:
			ce.Kind = "link-down"
		case scenario.EventLinkUp:
			ce.Kind = "link-up"
		case scenario.EventDemandDelta:
			ce.Kind = "demand-delta"
			ce.DeltaD, ce.DeltaT = e.DeltaD, e.DeltaT
		default:
			panic(fmt.Sprintf("wire: %v events are not rendered by the benchmark", e.Kind))
		}
		out[i] = ce
	}
	return out
}
