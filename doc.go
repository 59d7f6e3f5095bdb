// Package repro is a reproduction of "Balancing Performance, Robustness
// and Flexibility in Routing Systems" (Kwong, Guérin, Shaikh, Tao — ACM
// CoNEXT 2008 / IEEE TNSM 2010): Dual Topology Routing (DTR) weight
// optimization that serves delay-sensitive and throughput-sensitive
// traffic on independent shortest-path topologies, and makes both robust
// to single link failures via the paper's critical-link methodology.
//
// The root package is the public facade: build a Network (topology +
// two-class traffic + SLA model), call Optimize to obtain a regular and a
// robust routing, and evaluate either under normal conditions or any
// failure scenario.
//
//	net, _ := repro.NewNetwork(repro.NetworkSpec{
//	    Topology: "rand", Nodes: 30, Links: 180,
//	    AvgUtil: 0.43, SLABoundMs: 25, Seed: 1,
//	})
//	res, _ := net.Optimize(repro.OptimizeOptions{Budget: "std"})
//	report := res.Robust.EvaluateAllLinkFailures()
//	fmt.Println(report.AvgViolations)
//
// Richer perturbation sets — sampled multi-link outages, shared-risk
// link groups, node failures, traffic surges — are built with the
// Network scenario builders and evaluated on a parallel worker pool
// with Network.RunScenarios:
//
//	set := net.DualLinkFailureScenarios(200, 1)
//	rep, _ := net.RunScenarios(set, res.Robust)
//	fmt.Println(rep.AvgViolations, rep.WorstScenario)
//
// Optimize's inner loops run on an incremental delta-SPF engine that
// re-evaluates only the destinations and failure scenarios a weight
// move can touch, bit-identical to from-scratch evaluation (see
// DESIGN.md, "The incremental evaluation engine"); OptimizeResult's
// Phase1Stats/Phase2Stats report the resulting evaluation throughput.
// On large topologies — Topology "hier" generates hierarchical ISPs
// sized for 1000+ nodes — the search sessions shard their
// per-destination recompute across GOMAXPROCS cores once a network has
// 64 nodes; there is no worker setting, and results stay bit-identical
// at every core count, so parallelism changes wall-clock time only.
//
// The flexibility axis runs online: BuildLibrary precomputes a small
// set of configurations by clustering the scenario space and
// optimizing one robust routing per cluster, and a Controller tracks
// live conditions through telemetry events, advises the best
// configuration, and plans bounded-change migrations whose every step
// is loop-free and SLA-checked. Observe and ObserveBatch share one
// update path, so a single event is a batch of one: each run of link
// events becomes one multi-link update per candidate configuration,
// and each demand event refreshes only the destination columns it
// changes:
//
//	lib, _ := net.BuildLibrary(set, repro.LibraryOptions{Size: 4})
//	ctrl, _ := net.NewController(lib)
//	ctrl.Observe(repro.ControlEvent{Kind: "link-down", Link: 3})
//	if adv := ctrl.Advise(); adv.ShouldSwitch {
//	    plan, _ := ctrl.Plan(adv.Config, 5) // at most 5 weight changes
//	    ctrl.Apply(plan)
//	}
//
// To serve several networks from one process, NewFleet shards the
// control plane: one controller shard per network, each behind its own
// asynchronous intake queue with an independent lifecycle and crash
// isolation, and — when a checkpoint directory is configured — durable
// checkpoint/restore (snapshot + write-ahead event log) that recovers
// a bit-identical controller. Telemetry routes to shards by the
// ControlEvent Network field:
//
//	f, _ := repro.NewFleet([]repro.FleetMember{
//	    {Name: "east", Net: east, Library: eastLib},
//	    {Name: "west", Net: west, Library: westLib},
//	}, repro.FleetOptions{CheckpointDir: "ckpt"})
//	f.Enqueue([]repro.ControlEvent{{Kind: "link-down", Link: 3, Network: "west"}})
//	f.Quiesce("west")
//	adv, _ := f.Advise("west")
//
// cmd/dtrd serves a controller fleet as a long-running HTTP/JSON
// daemon — one network by default, several with -networks — with
// durable checkpoints, Prometheus-style metrics and scenario-set
// replay; docs/OPERATIONS.md is the operator's guide.
//
// The implementation lives in internal packages, one per subsystem (see
// DESIGN.md for the inventory); the experiment harness that regenerates
// every table and figure of the paper is exposed through
// cmd/experiments and the benchmarks in bench_test.go.
package repro
