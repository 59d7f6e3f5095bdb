// Command dtropt runs the dual-topology robust routing optimization on a
// generated network and reports the solution quality: normal-conditions
// performance, the critical link set, and behaviour under every single
// link failure, for both the regular and the robust routing.
//
// Usage:
//
//	dtropt -topology rand -nodes 30 -links 180 -avgutil 0.43 -budget std
//	dtropt -topology isp -maxutil 0.74 -budget quick
//	dtropt -topology isp -weights-out robust.json   # store the solution (feed to dtrd -weights)
//	dtropt -topology isp -weights-in robust.json    # re-evaluate it later
//
// -save and -load are kept as aliases of -weights-out and -weights-in.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/obsv"
)

// writeMetricsSnapshot dumps the registry's JSON snapshot to path.
func writeMetricsSnapshot(reg *obsv.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	topology := flag.String("topology", "rand", "topology family: rand|near|pl|isp|hier")
	nodes := flag.Int("nodes", 30, "node count (synthetic topologies)")
	links := flag.Int("links", 180, "directed link count (rand/near)")
	edgesPerNode := flag.Int("m", 3, "attachment count (pl)")
	theta := flag.Float64("sla", 25, "SLA delay bound in ms")
	avgUtil := flag.Float64("avgutil", 0, "scale traffic to this average utilization")
	maxUtilF := flag.Float64("maxutil", 0, "scale traffic to this maximum utilization")
	budget := flag.String("budget", "std", "search budget: quick|std|paper")
	frac := flag.Float64("critfrac", 0.15, "critical set size |Ec|/|E|")
	seed := flag.Int64("seed", 1, "random seed")
	save := flag.String("save", "", "alias of -weights-out")
	load := flag.String("load", "", "alias of -weights-in")
	weightsOut := flag.String("weights-out", "", "write the robust routing to this file as JSON (the format dtrd -weights and Network.RoutingFromJSON consume)")
	weightsIn := flag.String("weights-in", "", "skip optimization; evaluate the routing stored in this file")
	metricsOut := flag.String("metrics-out", "", "write the observability registry as a JSON snapshot to this file at exit")
	flag.Parse()
	if *weightsOut == "" {
		weightsOut = save
	}
	if *weightsIn == "" {
		weightsIn = load
	}

	// With -metrics-out the run records engine telemetry and dumps it on
	// the way out, so offline searches produce the same observability
	// artifact as the daemon's /metrics.json.
	if *metricsOut != "" {
		reg := obsv.NewRegistry()
		obsv.SetDefault(reg)
		defer func() {
			if err := writeMetricsSnapshot(reg, *metricsOut); err != nil {
				fmt.Fprintln(os.Stderr, "dtropt:", err)
				os.Exit(1)
			}
			fmt.Printf("metrics snapshot written to %s\n", *metricsOut)
		}()
	}

	net, err := repro.NewNetwork(repro.NetworkSpec{
		Topology:     *topology,
		Nodes:        *nodes,
		Links:        *links,
		EdgesPerNode: *edgesPerNode,
		SLABoundMs:   *theta,
		AvgUtil:      *avgUtil,
		MaxUtil:      *maxUtilF,
		Seed:         *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtropt:", err)
		os.Exit(1)
	}
	fmt.Printf("network: %s [%d nodes, %d links], SLA bound %gms\n",
		*topology, net.Nodes(), net.Links(), net.SLABoundMs())

	if *weightsIn != "" {
		data, err := os.ReadFile(*weightsIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtropt:", err)
			os.Exit(1)
		}
		r, err := net.RoutingFromJSON(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtropt:", err)
			os.Exit(1)
		}
		normal := r.Evaluate()
		failures := r.EvaluateAllLinkFailures()
		fmt.Printf("loaded routing (%s):\n", *weightsIn)
		fmt.Printf("  normal:   violations=%d  lambda=%.1f  phi=%.4g  util avg/max=%.2f/%.2f\n",
			normal.SLAViolations, normal.DelayCost, normal.ThroughputCost,
			normal.AvgUtilization, normal.MaxUtilization)
		fmt.Printf("  failures: avg violations=%.2f  top-10%%=%.2f\n",
			failures.AvgViolations, failures.Top10Violations)
		return
	}

	start := time.Now()
	res, err := net.Optimize(repro.OptimizeOptions{Budget: *budget, CriticalFraction: *frac, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtropt:", err)
		os.Exit(1)
	}
	fmt.Printf("optimization finished in %s (criticality converged: %v)\n",
		time.Since(start).Round(time.Millisecond), res.Converged)
	fmt.Printf("  phase 1: %d evals in %.2fs (%.0f evals/s)   phase 2: %d evals in %.2fs (%.0f evals/s)\n\n",
		res.Phase1Stats.Evaluations, res.Phase1Stats.Seconds, res.Phase1Stats.EvalsPerSec,
		res.Phase2Stats.Evaluations, res.Phase2Stats.Seconds, res.Phase2Stats.EvalsPerSec)

	printSolution := func(name string, r *repro.Routing) {
		normal := r.Evaluate()
		failures := r.EvaluateAllLinkFailures()
		fmt.Printf("%s routing:\n", name)
		fmt.Printf("  normal:   violations=%d  lambda=%.1f  phi=%.4g (norm %.3f)  util avg/max=%.2f/%.2f\n",
			normal.SLAViolations, normal.DelayCost, normal.ThroughputCost,
			normal.ThroughputCostNorm, normal.AvgUtilization, normal.MaxUtilization)
		fmt.Printf("  failures: avg violations=%.2f  top-10%%=%.2f  sum lambda=%.1f  sum phi=%.4g\n\n",
			failures.AvgViolations, failures.Top10Violations,
			failures.TotalDelayCost, failures.TotalThroughputCost)
	}
	printSolution("regular (phase 1)", res.Regular)
	printSolution("robust  (phase 2)", res.Robust)

	if *weightsOut != "" {
		data, err := json.Marshal(res.Robust)
		if err == nil {
			err = os.WriteFile(*weightsOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtropt:", err)
			os.Exit(1)
		}
		fmt.Printf("robust routing written to %s\n\n", *weightsOut)
	}

	fmt.Printf("critical links (|Ec|=%d, |Ec|/|E|=%.2f):\n", len(res.CriticalLinks), float64(len(res.CriticalLinks))/float64(net.Links()))
	for _, l := range res.CriticalLinks {
		li := net.Link(l)
		fmt.Printf("  link %3d  %s -> %s  (crit lambda=%.4f phi=%.4f)\n",
			l, li.From, li.To, res.CriticalityLambda[l], res.CriticalityPhi[l])
	}
}
