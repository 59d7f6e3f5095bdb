// Command scenarios stress-tests optimized routings against pluggable
// perturbation scenario sets: exhaustive single-link failures, sampled
// dual-link outages, shared-risk link groups derived from topology
// locality, node failures, and traffic surges. The sweep fans out
// across GOMAXPROCS workers; GOMAXPROCS=1 runs it serially.
//
// Usage:
//
//	scenarios -topology rand -nodes 30 -links 180 -sets single,dual,srlg,node,hotspot,scale
//	scenarios -sets dual,hotspot -dual 200 -surges 30 -budget std -seed 7
//	GOMAXPROCS=1 scenarios -sets single   # serial baseline
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
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
	topology := flag.String("topology", "rand", "topology family: rand|near|pl|isp")
	nodes := flag.Int("nodes", 30, "node count (synthetic topologies)")
	links := flag.Int("links", 180, "directed link count (synthetic topologies)")
	avgUtil := flag.Float64("avgutil", 0.43, "average link utilization under min-hop routing (0 = use -maxutil)")
	maxUtil := flag.Float64("maxutil", 0, "maximum link utilization under min-hop routing (overrides -avgutil)")
	sla := flag.Float64("sla", 25, "SLA delay bound in ms")
	seed := flag.Int64("seed", 1, "seed for topology, traffic, optimization and scenario sampling")
	budget := flag.String("budget", "quick", "optimization budget: quick|std|paper")
	sets := flag.String("sets", "single,dual,srlg,node,hotspot,scale", "comma-separated scenario sets to run")
	dual := flag.Int("dual", 100, "sampled dual-link scenarios")
	surges := flag.Int("surges", 20, "sampled hot-spot surge scenarios")
	download := flag.Bool("download", true, "hot-spot surges in download (server->client) direction")
	metricsOut := flag.String("metrics-out", "", "write the observability registry as a JSON snapshot to this file at exit")
	flag.Parse()

	// With -metrics-out the run records engine telemetry and dumps it on
	// the way out, so scenario sweeps produce the same observability
	// artifact as dtropt, experiments and the daemon's /metrics.json.
	if *metricsOut != "" {
		reg := obsv.NewRegistry()
		obsv.SetDefault(reg)
		defer func() {
			if err := writeMetricsSnapshot(reg, *metricsOut); err != nil {
				fmt.Fprintln(os.Stderr, "scenarios:", err)
				os.Exit(1)
			}
			fmt.Printf("metrics snapshot written to %s\n", *metricsOut)
		}()
	}

	spec := repro.NetworkSpec{
		Topology:   *topology,
		Nodes:      *nodes,
		Links:      *links,
		SLABoundMs: *sla,
		Seed:       *seed,
	}
	if *maxUtil > 0 {
		spec.MaxUtil = *maxUtil
	} else {
		spec.AvgUtil = *avgUtil
	}
	net, err := repro.NewNetwork(spec)
	if err != nil {
		fatal(err)
	}

	// Build the requested sets up front: a typo must not cost an
	// optimization run first.
	var scenarioSets []*repro.ScenarioSet
	for _, name := range strings.Split(*sets, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		set, err := buildSet(net, name, *dual, *surges, *download, *seed)
		if err != nil {
			fatal(err)
		}
		scenarioSets = append(scenarioSets, set)
	}

	fmt.Printf("network: %s, %d nodes, %d links, SLA %.0f ms\n", *topology, net.Nodes(), net.Links(), net.SLABoundMs())
	fmt.Printf("optimizing (budget=%s)...\n", *budget)
	start := time.Now()
	res, err := net.Optimize(repro.OptimizeOptions{Budget: *budget, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("optimized in %.1fs (%d critical links)\n\n", time.Since(start).Seconds(), len(res.CriticalLinks))

	for _, set := range scenarioSets {
		if set.Size() == 0 {
			fmt.Printf("== %s: no scenarios (set empty on this topology) ==\n\n", set.Name())
			continue
		}
		start := time.Now()
		regular, err := net.RunScenarios(set, res.Regular)
		if err != nil {
			fatal(err)
		}
		robust, err := net.RunScenarios(set, res.Robust)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("== %s: %d scenarios (%.0f ms) ==\n", set.Name(), set.Size(), time.Since(start).Seconds()*1000)
		fmt.Printf("  %-8s  %9s  %9s  %6s  %7s  %8s  %7s  worst case\n",
			"routing", "avg viol", "top10%", "p95", "overld", "disconn", "maxutil")
		printRow("regular", regular)
		printRow("robust", robust)
		fmt.Println()
	}
}

func printRow(name string, rep *repro.ScenarioReport) {
	fmt.Printf("  %-8s  %9.2f  %9.2f  %6.0f  %7d  %8d  %7.2f  %s (%d viol)\n",
		name, rep.AvgViolations, rep.Top10Violations, rep.ViolationsP95,
		rep.Overloaded, rep.Disconnected, rep.WorstMaxUtil,
		rep.WorstScenario, rep.WorstViolations)
}

func buildSet(net *repro.Network, name string, dual, surges int, download bool, seed int64) (*repro.ScenarioSet, error) {
	switch name {
	case "single":
		return net.SingleLinkFailureScenarios(), nil
	case "dual":
		return net.DualLinkFailureScenarios(dual, seed+1), nil
	case "srlg":
		return net.SRLGScenarios(), nil
	case "node":
		return net.NodeFailureScenarios(), nil
	case "hotspot":
		return net.HotspotSurgeScenarios(download, surges, seed+2), nil
	case "scale":
		return net.TrafficScaleScenarios(1.1, 1.25, 1.5, 2, 3), nil
	default:
		return nil, fmt.Errorf("scenarios: unknown set %q (single|dual|srlg|node|hotspot|scale)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
