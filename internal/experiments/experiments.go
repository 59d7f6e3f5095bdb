// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV-E and Section V), plus the ablations called out
// in DESIGN.md. Each experiment is a named runner that builds its
// scenario, executes the optimization pipeline, prints paper-shaped rows,
// and returns its headline numbers as metrics for the benchmark harness.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/opt"
	"repro/internal/routing"
	scen "repro/internal/scenario"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// Scale selects the experiment size/search budget trade-off.
type Scale int

const (
	// Quick uses small topologies and tiny budgets: seconds per
	// experiment, used by tests and `go test -bench`.
	Quick Scale = iota
	// Std uses the paper's topology sizes with reduced search budgets:
	// minutes per experiment.
	Std
	// Paper uses the paper's full search budgets: hours to days.
	Paper
)

// ParseScale maps a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "std":
		return Std, nil
	case "paper":
		return Paper, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (quick|std|paper)", s)
	}
}

// Options configures a run.
type Options struct {
	Scale Scale
	Seed  int64
	// Reps overrides the per-scale repetition count when positive.
	Reps int
	Out  io.Writer
}

func (o Options) reps() int {
	if o.Reps > 0 {
		return o.Reps
	}
	switch o.Scale {
	case Quick:
		return 1
	case Std:
		return 3
	default:
		return 5
	}
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// config returns the optimization budget for the scale.
func (o Options) config() opt.Config {
	var c opt.Config
	switch o.Scale {
	case Quick:
		c = opt.QuickConfig()
		c.Tau = 3
		c.MaxIter1 = 14
		c.MaxIter2 = 8
		c.Div1Interval = 4
		c.Div2Interval = 2
		c.P1 = 2
		c.P2 = 1
		c.MaxTopUpBatches = 4
	case Std:
		c = opt.QuickConfig()
	default:
		c = opt.DefaultConfig()
	}
	c.Seed = o.Seed
	return c
}

// topoSet describes the four evaluation topologies at the current scale.
type topoSet struct {
	rand, near, pl topogen.Spec
}

func (o Options) topos() topoSet {
	if o.Scale == Quick {
		return topoSet{
			rand: topogen.Spec{Kind: topogen.RandKind, Nodes: 12, DirectedLinks: 60},
			near: topogen.Spec{Kind: topogen.NearKind, Nodes: 12, DirectedLinks: 60},
			pl:   topogen.Spec{Kind: topogen.PLKind, Nodes: 12, EdgesPerNode: 2},
		}
	}
	return topoSet{
		rand: topogen.Spec{Kind: topogen.RandKind, Nodes: 30, DirectedLinks: 180},
		near: topogen.Spec{Kind: topogen.NearKind, Nodes: 30, DirectedLinks: 180},
		pl:   topogen.Spec{Kind: topogen.PLKind, Nodes: 30, EdgesPerNode: 3},
	}
}

// ispSpec is scale-independent: the backbone is fixed.
func ispSpec() topogen.Spec { return topogen.Spec{Kind: topogen.ISPKind} }

// Report carries an experiment's headline metrics, in insertion order.
type Report struct {
	ID      string
	Metrics []Metric
}

// Metric is one named result value.
type Metric struct {
	Name  string
	Value float64
}

// Add appends a metric.
func (r *Report) Add(name string, v float64) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v})
}

// Get returns a metric by name.
func (r *Report) Get(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Runner executes one experiment.
type Runner func(Options) (*Report, error)

// Registry maps experiment ids to runners. IDs returns them sorted.
var Registry = map[string]Runner{
	"table1":            Table1,
	"table1hl":          Table1HighLoad,
	"savings":           Savings,
	"table2":            Table2,
	"table3":            Table3,
	"table4":            Table4,
	"table5":            Table5,
	"fig3":              Fig3,
	"fig4":              Fig4,
	"fig5a":             Fig5a,
	"fig5bc":            Fig5bc,
	"fig5d":             Fig5d,
	"fig6ab":            Fig6ab,
	"fig6cd":            Fig6cd,
	"fig7ab":            Fig7ab,
	"fig7cd":            Fig7cd,
	"ablation-selector": AblationSelectors,
	"ablation-tail":     AblationTail,
	"ablation-q":        AblationQ,
	"ablation-metric":   AblationDelayMetric,
	"ext-double":        ExtDoubleFailure,
	"ext-design":        ExtDesign,
}

// IDs returns the registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id.
func Run(id string, opts Options) (*Report, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(opts)
}

// scenario bundles one generated network instance with its traffic.
type scenario struct {
	g    *graph.Graph
	demD *traffic.Matrix
	demT *traffic.Matrix
	ev   *routing.Evaluator
}

// utilTarget expresses a load level as either average or maximum
// utilization under min-hop routing.
type utilTarget struct {
	value float64
	max   bool
}

func avgUtil(v float64) utilTarget { return utilTarget{value: v} }
func maxUtil(v float64) utilTarget { return utilTarget{value: v, max: true} }

// buildScenario generates the topology and gravity traffic, scales the
// load, and wires an evaluator with the given SLA bound.
func buildScenario(spec topogen.Spec, seed int64, load utilTarget, thetaMs float64) (*scenario, error) {
	if spec.Kind != topogen.ISPKind && spec.DiameterMs == 0 {
		// "Scaled proportionally to ensure a reasonable match between the
		// target SLA bound and the network diameter": 80% of θ leaves the
		// failure-tolerance margin the paper's robustness results rely
		// on (a zero-margin network has unavoidable violations no
		// routing can prevent — see DESIGN.md). The SLA-sweep
		// experiments override this with the paper's fixed 25 ms.
		spec.DiameterMs = 0.8 * thetaMs
	}
	rng := rand.New(rand.NewSource(seed))
	g, err := topogen.Generate(spec, rng)
	if err != nil {
		return nil, err
	}
	demD, demT := traffic.Gravity(g.NumNodes(), 1, 0.3, rng)
	if load.max {
		_, err = routing.ScaleToMaxUtil(g, demD, demT, load.value)
	} else {
		_, err = routing.ScaleToAvgUtil(g, demD, demT, load.value)
	}
	if err != nil {
		return nil, err
	}
	params := cost.DefaultParams()
	params.ThetaMs = thetaMs
	params.DropExcessMs = thetaMs
	ev := routing.NewEvaluator(g, demD, demT, params, routing.WorstPath)
	return &scenario{g: g, demD: demD, demT: demT, ev: ev}, nil
}

// pipeline is the standard robust-optimization run shared by most
// experiments: Phase 1, convergence top-up, critical selection at frac,
// Phase 2, and full all-link failure sweeps of both the regular and the
// robust solutions.
type pipeline struct {
	opt      *opt.Optimizer
	p1       *opt.Phase1Result
	critical []int
	p2       *opt.Phase2Result
	// regular and robust are all-single-link-failure sweeps of the
	// Phase 1 and Phase 2 solutions.
	regular, robust *scen.Report
}

func runPipeline(sc *scenario, cfg opt.Config, frac float64) *pipeline {
	o := opt.New(sc.ev, cfg)
	p1 := o.RunPhase1()
	o.TopUpSamples(p1)
	critical := o.SelectCritical(p1, frac)
	p2 := o.RunPhase2(p1, opt.FailureSet{Links: critical, Both: cfg.FailBoth})
	pl := &pipeline{opt: o, p1: p1, critical: critical, p2: p2}
	set := allLinkScenarios(sc, cfg)
	pl.regular = scen.Runner{}.Run(sc.ev, p1.BestW, set)
	pl.robust = scen.Runner{}.Run(sc.ev, p2.BestW, set)
	return pl
}

// allLinkScenarios is the experiments' canonical robustness set: every
// single directed link failure, under fiber-cut semantics when the
// config asks for them.
func allLinkScenarios(sc *scenario, cfg opt.Config) scen.Set {
	if cfg.FailBoth {
		return scen.PhysicalLinkFailures(sc.g)
	}
	return scen.SingleLinkFailures(sc.g)
}

// meanStd aggregates repetition results.
func meanStd(vals []float64) (mean, std float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean = sum / float64(len(vals))
	var ss float64
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	std = math.Sqrt(ss / float64(len(vals)))
	return mean, std
}

// pct returns the percentage difference of got from ref (absolute value),
// 0 when ref is 0.
func pct(got, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	return math.Abs(got-ref) / ref * 100
}
