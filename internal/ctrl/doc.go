// Package ctrl is the online control plane of the routing system: the
// piece that runs as a service rather than a batch experiment. It has
// three parts, mirroring the flexibility axis of the paper — adapting
// routing to shifting traffic and failures with a bounded number of
// weight changes:
//
//   - a configuration Library of k weight settings, precomputed by
//     clustering the scenario space (failure and surge scenarios from
//     internal/scenario) and running the two-phase optimizer once per
//     cluster (opt.RunPhase2Set), stored with per-scenario objective
//     fingerprints;
//   - a migration planner (PlanMigration) that turns "switch from
//     W_cur to W_tgt" into a minimal-diff change set under a MaxChanges
//     budget, with an apply order chosen greedily so every intermediate
//     step is loop-free and SLA-evaluated, falling back to staged
//     partial migration when the budget binds;
//   - the Selector, one per network and safe for concurrent use: it
//     consumes a telemetry stream (link up/down, dense demand-matrix
//     updates, sparse demand deltas), keeps one persistent
//     routing.Session per candidate configuration for incremental
//     re-scoring, advises the best library entry for the current
//     conditions, owns the deployed weights, plans and applies
//     migrations toward a configuration (refusing stale plans), and
//     hands over and restores its Checkpoint state for crash recovery.
//
// Scoring is exact: the selector's per-configuration results and the
// planner's per-step results are bit-identical to what the from-scratch
// Evaluator computes for the same conditions (the routing.Session
// contract), so an offline oracle can audit every online decision. The
// selector's link-event latency rides the session stack: each event is
// classified per destination in O(1), and destinations whose distances
// genuinely move are repaired in place (Ramalingam–Reps incremental SPF,
// internal/spf) rather than re-solved. Demand events are incremental
// too: only the destination columns whose demands actually changed
// recompute (no shortest-path work at all), and no-op events never fan
// out. See DESIGN.md ("The online control plane", "Incremental SPF
// repair" and "The demand-delta engine") for the invariants.
package ctrl
