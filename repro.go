package repro

import (
	"fmt"
	"math/rand"

	"repro/internal/cost"
	"repro/internal/design"
	"repro/internal/graph"
	"repro/internal/opt"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// NetworkSpec describes a network to build: topology family, size, load
// level and SLA bound. Exactly one of AvgUtil/MaxUtil may be positive;
// zero values fall back to the paper's defaults.
type NetworkSpec struct {
	// Topology selects the family: "rand", "near", "pl", "isp" or
	// "hier" (hierarchical core/PoP/access ISP, sized for 100s-1000s of
	// nodes).
	Topology string
	// Nodes and Links size synthetic topologies ("isp" is fixed at
	// 16/70). Links counts directed links and must be even.
	Nodes, Links int
	// EdgesPerNode is the preferential-attachment parameter for "pl"
	// (default 3).
	EdgesPerNode int
	// CapacityMbps is the per-link capacity (default 500).
	CapacityMbps float64
	// SLABoundMs is the end-to-end delay bound θ (default 25).
	SLABoundMs float64
	// PropDiameterMs scales synthetic-topology propagation delays so the
	// network's propagation diameter matches this value (default 0.8·θ,
	// leaving failure-tolerance margin; ignored for "isp").
	PropDiameterMs float64
	// AvgUtil / MaxUtil scale traffic to an average or maximum link
	// utilization under min-hop routing (default: AvgUtil 0.43).
	AvgUtil, MaxUtil float64
	// DelayFraction is the delay-sensitive share of total traffic
	// (default 0.3).
	DelayFraction float64
	// Seed drives topology and traffic generation.
	Seed int64
}

// Network is an immutable network instance: topology, two-class traffic,
// and SLA model.
type Network struct {
	g      *graph.Graph
	demD   *traffic.Matrix
	demT   *traffic.Matrix
	params cost.Params
	ev     *routing.Evaluator
}

// NewNetwork generates the topology and gravity-model traffic of spec.
func NewNetwork(spec NetworkSpec) (*Network, error) {
	var kind topogen.Kind
	switch spec.Topology {
	case "rand", "":
		kind = topogen.RandKind
	case "near":
		kind = topogen.NearKind
	case "pl":
		kind = topogen.PLKind
	case "isp":
		kind = topogen.ISPKind
	case "hier":
		kind = topogen.HierKind
	default:
		return nil, fmt.Errorf("repro: unknown topology %q (rand|near|pl|isp|hier)", spec.Topology)
	}
	edgesPerNode := spec.EdgesPerNode
	if edgesPerNode == 0 {
		edgesPerNode = 3
	}
	theta := spec.SLABoundMs
	if theta == 0 {
		theta = 25
	}
	diameter := spec.PropDiameterMs
	if diameter == 0 {
		diameter = 0.8 * theta
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	g, err := topogen.Generate(topogen.Spec{
		Kind:          kind,
		Nodes:         spec.Nodes,
		DirectedLinks: spec.Links,
		EdgesPerNode:  edgesPerNode,
		CapacityMbps:  spec.CapacityMbps,
		DiameterMs:    diameter,
	}, rng)
	if err != nil {
		return nil, err
	}

	delayFrac := spec.DelayFraction
	if delayFrac == 0 {
		delayFrac = 0.3
	}
	demD, demT := traffic.Gravity(g.NumNodes(), 1, delayFrac, rng)
	switch {
	case spec.AvgUtil > 0 && spec.MaxUtil > 0:
		return nil, fmt.Errorf("repro: set at most one of AvgUtil and MaxUtil")
	case spec.MaxUtil > 0:
		_, err = routing.ScaleToMaxUtil(g, demD, demT, spec.MaxUtil)
	case spec.AvgUtil > 0:
		_, err = routing.ScaleToAvgUtil(g, demD, demT, spec.AvgUtil)
	default:
		_, err = routing.ScaleToAvgUtil(g, demD, demT, 0.43)
	}
	if err != nil {
		return nil, err
	}

	params := cost.DefaultParams()
	if spec.SLABoundMs > 0 {
		params.ThetaMs = spec.SLABoundMs
		params.DropExcessMs = spec.SLABoundMs
	}
	return newNetwork(g, demD, demT, params), nil
}

func newNetwork(g *graph.Graph, demD, demT *traffic.Matrix, params cost.Params) *Network {
	return &Network{
		g: g, demD: demD, demT: demT, params: params,
		ev: routing.NewEvaluator(g, demD, demT, params, routing.WorstPath),
	}
}

// Nodes returns the node count.
func (n *Network) Nodes() int { return n.g.NumNodes() }

// Links returns the directed link count.
func (n *Network) Links() int { return n.g.NumLinks() }

// SLABoundMs returns the SLA delay bound θ.
func (n *Network) SLABoundMs() float64 { return n.params.ThetaMs }

// LinkInfo describes one directed link.
type LinkInfo struct {
	From, To     string
	CapacityMbps float64
	PropDelayMs  float64
}

// Link returns a description of directed link l.
func (n *Network) Link(l int) LinkInfo {
	lk := n.g.Link(l)
	return LinkInfo{
		From:         n.g.NodeName(lk.From),
		To:           n.g.NodeName(lk.To),
		CapacityMbps: lk.Capacity,
		PropDelayMs:  lk.Delay,
	}
}

// WithFluctuatedTraffic returns a copy of the network whose demands are
// perturbed by the paper's Gaussian fluctuation model (per-pair std
// eps·demand).
func (n *Network) WithFluctuatedTraffic(eps float64, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	return newNetwork(n.g, n.demD.Fluctuate(eps, rng), n.demT.Fluctuate(eps, rng), n.params)
}

// WithHotspotTraffic returns a copy of the network with the paper's
// hot-spot surge applied (10% servers, 50% clients, factors U[2,6]).
func (n *Network) WithHotspotTraffic(download bool, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	h := traffic.DefaultHotspot(download)
	d, t := h.Apply(n.demD, n.demT, rng)
	return newNetwork(n.g, d, t, n.params)
}

// Routing is a dual-topology weight setting bound to a network.
type Routing struct {
	w   *routing.WeightSetting
	net *Network
}

// UniformRouting returns the all-ones (min-hop) routing.
func (n *Network) UniformRouting() *Routing {
	return &Routing{w: routing.NewWeightSetting(n.g.NumLinks()), net: n}
}

// RandomRouting returns a uniformly random weight setting, useful as a
// baseline.
func (n *Network) RandomRouting(seed int64) *Routing {
	rng := rand.New(rand.NewSource(seed))
	return &Routing{w: routing.RandomWeightSetting(n.g.NumLinks(), 20, rng), net: n}
}

// Weights returns copies of the two weight vectors (delay class,
// throughput class).
func (r *Routing) Weights() (delay, throughput []int) {
	delay = make([]int, len(r.w.Delay))
	throughput = make([]int, len(r.w.Throughput))
	for i := range r.w.Delay {
		delay[i] = int(r.w.Delay[i])
		throughput[i] = int(r.w.Throughput[i])
	}
	return delay, throughput
}

// On rebinds the routing to another network of identical size (e.g. one
// with perturbed traffic), so a solution can be evaluated under traffic
// uncertainty.
func (r *Routing) On(n *Network) (*Routing, error) {
	if n.g.NumLinks() != r.w.Len() {
		return nil, fmt.Errorf("repro: routing covers %d links, network has %d", r.w.Len(), n.g.NumLinks())
	}
	return &Routing{w: r.w, net: n}, nil
}

// Evaluation summarizes one network state.
type Evaluation struct {
	// SLAViolations counts delay-class SD pairs exceeding the bound.
	SLAViolations int
	// Disconnected counts delay-class SD pairs with no path.
	Disconnected int
	// DelayCost is Λ, ThroughputCost Φ (raw), ThroughputCostNorm the
	// normalized Φ the paper plots.
	DelayCost, ThroughputCost, ThroughputCostNorm float64
	// MaxUtilization and AvgUtilization summarize link loads.
	MaxUtilization, AvgUtilization float64
}

func toEval(res *routing.Result) Evaluation {
	return Evaluation{
		SLAViolations:      res.Violations,
		Disconnected:       res.Disconnected,
		DelayCost:          res.Cost.Lambda,
		ThroughputCost:     res.Cost.Phi,
		ThroughputCostNorm: res.PhiNorm,
		MaxUtilization:     res.MaxUtil,
		AvgUtilization:     res.AvgUtil,
	}
}

// Evaluate computes the normal-conditions state of the routing.
func (r *Routing) Evaluate() Evaluation {
	var res routing.Result
	r.net.ev.EvaluateNormal(r.w, &res)
	return toEval(&res)
}

// EvaluateLinkFailure computes the state with directed link l down.
func (r *Routing) EvaluateLinkFailure(l int) Evaluation {
	var res routing.Result
	r.net.ev.EvaluateLinkFailure(r.w, l, false, &res)
	return toEval(&res)
}

// EvaluateNodeFailure computes the state with node v down and its
// traffic removed.
func (r *Routing) EvaluateNodeFailure(v int) Evaluation {
	var res routing.Result
	r.net.ev.EvaluateNodeFailure(r.w, v, &res)
	return toEval(&res)
}

// EvaluateAllLinkFailures sweeps every single directed link failure on
// the scenario runner. The report's AvgViolations and Top10Violations
// are the paper's β metrics; PerScenario follows link order.
func (r *Routing) EvaluateAllLinkFailures() *ScenarioReport {
	return toScenarioReport(scenario.Runner{}.Run(r.net.ev, r.w, scenario.SingleLinkFailures(r.net.g)))
}

// EvaluateAllNodeFailures sweeps every single node failure on the
// scenario runner; PerScenario follows node order.
func (r *Routing) EvaluateAllNodeFailures() *ScenarioReport {
	return toScenarioReport(scenario.Runner{}.Run(r.net.ev, r.w, scenario.NodeFailures(r.net.g)))
}

// OptimizeOptions controls the optimization pipeline.
type OptimizeOptions struct {
	// Budget selects the search effort: "quick" (seconds), "std"
	// (minutes, the default) or "paper" (the paper's full budgets).
	Budget string
	// CriticalFraction is |Ec|/|E| (default 0.15).
	CriticalFraction float64
	// NodeFailures switches the robust objective from all single link
	// failures (critical-link accelerated) to all single node failures.
	NodeFailures bool
	// LinkFailureProbs, when set (one value per directed link), switches
	// to the probabilistic failure model the paper's conclusion proposes:
	// criticality becomes expected regret (scaled by probability) and the
	// robust objective weights each link-failure scenario by its
	// probability. Incompatible with NodeFailures.
	LinkFailureProbs []float64
	// Seed drives the search.
	Seed int64
}

// SearchStats summarizes the work one optimization phase performed. The
// evaluation throughput is the headline number the incremental delta-SPF
// engine moves; it is reported by cmd/dtropt and the savings experiment
// so speedups stay visible in every run's output.
type SearchStats struct {
	// Iterations counts full passes over all links; Evaluations the
	// single-scenario network evaluations performed.
	Iterations, Evaluations int
	// Seconds is the phase's wall time; EvalsPerSec its evaluation
	// throughput.
	Seconds, EvalsPerSec float64
}

func toSearchStats(s opt.Stats) SearchStats {
	return SearchStats{
		Iterations:  s.Iterations,
		Evaluations: s.Evaluations,
		Seconds:     s.Duration.Seconds(),
		EvalsPerSec: s.EvalsPerSec(),
	}
}

// OptimizeResult carries both solutions and the critical-link artifacts.
type OptimizeResult struct {
	// Regular optimizes normal conditions only (Phase 1); Robust also
	// withstands failures (Phase 2).
	Regular, Robust *Routing
	// CriticalLinks is the selected E_c (empty in NodeFailures mode).
	CriticalLinks []int
	// CriticalityLambda/Phi are the normalized per-link criticalities.
	CriticalityLambda, CriticalityPhi []float64
	// Converged reports whether the criticality rankings stabilized.
	Converged bool
	// Phase1Stats covers the regular search including criticality
	// sampling; Phase2Stats the robust search.
	Phase1Stats, Phase2Stats SearchStats
}

// optConfigForBudget maps a facade budget name to an optimizer
// configuration, shared by Optimize and BuildLibrary.
func optConfigForBudget(budget string) (opt.Config, error) {
	switch budget {
	case "quick":
		cfg := opt.QuickConfig()
		cfg.Tau = 3
		cfg.MaxIter1 = 14
		cfg.MaxIter2 = 8
		cfg.Div1Interval = 4
		cfg.Div2Interval = 2
		cfg.P1 = 2
		cfg.P2 = 1
		cfg.MaxTopUpBatches = 4
		return cfg, nil
	case "std", "":
		return opt.QuickConfig(), nil
	case "paper":
		return opt.DefaultConfig(), nil
	}
	return opt.Config{}, fmt.Errorf("repro: unknown budget %q (quick|std|paper)", budget)
}

// Optimize runs the paper's pipeline on the network and returns the
// regular and robust routings.
func (n *Network) Optimize(opts OptimizeOptions) (*OptimizeResult, error) {
	cfg, err := optConfigForBudget(opts.Budget)
	if err != nil {
		return nil, err
	}
	cfg.Seed = opts.Seed
	frac := opts.CriticalFraction
	if frac == 0 {
		frac = cfg.TargetCriticalFrac
	}

	if opts.LinkFailureProbs != nil {
		if opts.NodeFailures {
			return nil, fmt.Errorf("repro: LinkFailureProbs is incompatible with NodeFailures")
		}
		if len(opts.LinkFailureProbs) != n.g.NumLinks() {
			return nil, fmt.Errorf("repro: %d failure probabilities for %d links", len(opts.LinkFailureProbs), n.g.NumLinks())
		}
	}

	o := opt.New(n.ev, cfg)
	p1 := o.RunPhase1()
	res := &OptimizeResult{Regular: &Routing{w: p1.BestW, net: n}}
	var p2 *opt.Phase2Result
	switch {
	case opts.NodeFailures:
		p2 = o.RunPhase2(p1, opt.AllNodeFailures(n.ev))
	case opts.LinkFailureProbs != nil:
		o.TopUpSamples(p1)
		res.CriticalLinks = o.SelectCriticalWeighted(p1, frac, opts.LinkFailureProbs)
		res.Converged = p1.Converged
		crit := p1.Sampler.Estimate()
		res.CriticalityLambda, res.CriticalityPhi = crit.Normalized()
		fs := opt.FailureSet{Links: res.CriticalLinks, LinkProbs: make([]float64, len(res.CriticalLinks))}
		for i, l := range res.CriticalLinks {
			fs.LinkProbs[i] = opts.LinkFailureProbs[l]
		}
		p2 = o.RunPhase2(p1, fs)
	default:
		o.TopUpSamples(p1)
		res.CriticalLinks = o.SelectCritical(p1, frac)
		res.Converged = p1.Converged
		crit := p1.Sampler.Estimate()
		res.CriticalityLambda, res.CriticalityPhi = crit.Normalized()
		p2 = o.RunPhase2(p1, opt.FailureSet{Links: res.CriticalLinks})
	}
	res.Robust = &Routing{w: p2.BestW, net: n}
	res.Phase1Stats = toSearchStats(p1.Stats)
	res.Phase2Stats = toSearchStats(p2.Stats)
	return res, nil
}

// MarshalJSON encodes the routing's weight vectors, so solutions can be
// stored and reloaded with Network.RoutingFromJSON.
func (r *Routing) MarshalJSON() ([]byte, error) {
	return r.w.MarshalJSON()
}

// RoutingFromJSON decodes a routing saved with MarshalJSON and binds it
// to this network. The link counts must match.
func (n *Network) RoutingFromJSON(data []byte) (*Routing, error) {
	var w routing.WeightSetting
	if err := w.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	if w.Len() != n.g.NumLinks() {
		return nil, fmt.Errorf("repro: routing covers %d links, network has %d", w.Len(), n.g.NumLinks())
	}
	return &Routing{w: &w, net: n}, nil
}

// Augmentation is a suggested new edge from the topology-design advisor.
type Augmentation struct {
	// From and To are the endpoint node names; DelayMs the estimated
	// propagation delay of the new span.
	From, To string
	DelayMs  float64
	// FloorRemoved is how many unavoidable post-failure SLA violations
	// (violations no routing can prevent) the edge eliminates.
	FloorRemoved int
}

// UnavoidableViolations returns the network's violation floor: the total
// over all single link failures of SD pairs whose minimum achievable
// propagation delay exceeds the SLA bound — violations that no weight
// setting can prevent. A nonzero floor bounds what Optimize can achieve;
// SuggestAugmentations proposes edges that lower it.
func (n *Network) UnavoidableViolations() int {
	total, _ := design.Floor(n.g, n.params.ThetaMs)
	return total
}

// SuggestAugmentations ranks candidate new edges by how much of the
// unavoidable-violation floor they remove (the joint routing/topology
// design extension of the paper's conclusion). It returns up to k
// suggestions, best first.
func (n *Network) SuggestAugmentations(k int) ([]Augmentation, error) {
	capacity := 500.0
	if n.g.NumLinks() > 0 {
		capacity = n.g.Link(0).Capacity
	}
	cands, err := design.RankAugmentations(n.g, n.params.ThetaMs, capacity, k)
	if err != nil {
		return nil, err
	}
	out := make([]Augmentation, len(cands))
	for i, c := range cands {
		out[i] = Augmentation{
			From:         n.g.NodeName(c.U),
			To:           n.g.NodeName(c.V),
			DelayMs:      c.DelayMs,
			FloorRemoved: c.Gain,
		}
	}
	return out, nil
}
