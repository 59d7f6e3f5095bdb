// Package scenario is the perturbation engine of the routing system: it
// generates sets of hypothetical network states — link failures (single,
// sampled multi-link, shared-risk groups), node failures, and traffic
// surges — and evaluates a weight setting against all of them on
// GOMAXPROCS workers.
//
// A Scenario describes one perturbation: the failure mask it induces on
// the topology, the node (if any) whose traffic disappears, and the
// demand matrices in effect. Generators build Sets of scenarios; a
// Runner fans a Set across GOMAXPROCS workers (internal/par), with one
// reusable mask per worker
// and the Evaluator's pooled scratch state per call, and aggregates a
// Report with per-scenario results and worst-case/percentile SLA
// metrics.
//
// Sets also have a temporal rendering: Episodes/Events turn a scenario
// set into a replayable telemetry stream (link-down, link-up, dense
// demand updates, and sparse demand deltas — hot-spot surges render as
// changed-entries-only DemandDelta onset/inverse-recovery pairs) that
// the control plane's Selector consumes — the bridge between the
// offline robustness sweeps and the online serving path.
// DESIGN.md ("The scenario engine") documents the generators' sampling
// rules and the runner's determinism guarantees.
package scenario
