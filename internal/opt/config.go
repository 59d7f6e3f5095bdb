// Package opt implements the paper's two-phase optimization heuristic
// (Section IV, Fig. 1):
//
//   - Phase 1 (regular optimization) runs a local search over dual
//     weight settings to minimize the normal-conditions lexicographic
//     cost, recording acceptable solutions and harvesting failure-like
//     perturbations as criticality samples (Phase 1a).
//   - Phase 1b tops up samples until the criticality rankings converge.
//   - Phase 1c selects the critical link set (core.Select).
//   - Phase 2 (robust optimization) searches again, starting from the
//     recorded acceptable solutions, minimizing the compounded failure
//     cost over the critical links subject to the normal-conditions
//     constraints of Eqs. (5)-(6).
package opt

import "time"

// Config collects the heuristic's parameters. Paper values are noted on
// every field; DefaultConfig returns them verbatim and QuickConfig a
// scaled-down search budget with identical model constants.
type Config struct {
	// WMax is the largest link weight; weights live in [1, WMax].
	WMax int
	// Chi (χ=0.2) bounds the tolerated normal-conditions degradation of
	// throughput-sensitive cost in exchange for robustness (Eq. 6).
	Chi float64
	// Z (z=0.5) relaxes the delay-cost gate when harvesting samples:
	// a state is sample-acceptable if its Λ is within z·B1 of the best.
	Z float64
	// Q (q=0.7) defines failure-like perturbations: both class weights in
	// [q·WMax, WMax].
	Q float64
	// LeftTailFrac (0.10) is the left-tail share in the criticality
	// definition.
	LeftTailFrac float64
	// Tau (τ=30) is the average per-link sample count between
	// convergence checks; ConvThreshold (e=2) the rank-churn bound.
	Tau           int
	ConvThreshold float64
	// CFrac (c=0.1%) is the relative best-cost improvement below which a
	// diversification counts as low-gain.
	CFrac float64
	// P1 and P2 (20, 10) are the numbers of consecutive low-gain
	// diversifications that end Phases 1 and 2.
	P1, P2 int
	// Div1Interval and Div2Interval (100, 30) are the stagnation
	// iteration counts that trigger a diversification in each phase.
	Div1Interval, Div2Interval int
	// MaxIter1 and MaxIter2 cap the total full-pass iterations per phase
	// (0 = uncapped); they exist so reduced-scale runs terminate quickly.
	MaxIter1, MaxIter2 int
	// MaxTopUpBatches caps Phase 1b's sampling batches (0 = uncapped).
	MaxTopUpBatches int
	// TargetCriticalFrac is |Ec|/|E| (paper default 0.15).
	TargetCriticalFrac float64
	// PoolCap bounds the acceptable-solution pool.
	PoolCap int
	// FailBoth makes every failure scenario take down both directions of
	// a physical link. The paper's formulation fails directed links
	// (matching its Σ_{l∈E} compounding), which is the default.
	FailBoth bool
	// ExactPhase1b makes Phase 1b build the per-link cost distributions
	// from true link removals over the acceptable-solution pool, instead
	// of weight-emulated failures. The paper emulates failures with
	// weights in [q·wmax, wmax] because those samples come free during
	// its (very long) Phase 1a and because its wmax dwarfs any path
	// weight; with the Fortz–Thorup wmax=20 used here, an emulated
	// "failed" link can still sit on shortest paths, so the exact
	// distribution (the paper's own "infinite weight" limit) is both
	// cheaper and more faithful at reduced budgets. Unless FullEval is
	// set, the removals run on one incremental Session per worker: Init
	// once per pool entry, then per link SetLinkStates and Revert,
	// bit-identical to from-scratch link-failure evaluations. See
	// DESIGN.md.
	ExactPhase1b bool
	// SessionBudgetBytes caps the memory the incremental sessions of
	// Phase 1b and the robust search may claim, estimated via
	// Evaluator.SessionBytes. Phase 2 needs one session per scenario
	// plus normal conditions; Phase 1b runs as many worker sessions as
	// fit, up to GOMAXPROCS. A phase whose sessions do not fit — very
	// large topologies optimized against very large failure sets — falls
	// back to from-scratch sweeps, which produce bit-identical results,
	// just slower. 0 means DefaultSessionBudgetBytes (1 GiB).
	SessionBudgetBytes int64
	// FullEval disables the incremental evaluation engine: every move in
	// the Phase 1/Phase 2 inner loops, and every exact Phase 1b link
	// removal, is evaluated from scratch instead of through delta-SPF
	// sessions (which repair affected SPF snapshots in place with one
	// spf.RepairBatch per destination, weight moves and link removals
	// alike, rather than re-running Dijkstra). The two modes
	// visit the same moves with the same RNG stream and produce
	// bit-identical Solutions (the sessions' contract, see
	// routing.Session); FullEval exists as the oracle for equivalence
	// tests and as the benchmark baseline.
	FullEval bool
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		WMax:               20,
		Chi:                0.2,
		Z:                  0.5,
		Q:                  0.7,
		LeftTailFrac:       0.1,
		Tau:                30,
		ConvThreshold:      2,
		CFrac:              0.001,
		P1:                 20,
		P2:                 10,
		Div1Interval:       100,
		Div2Interval:       30,
		MaxTopUpBatches:    50,
		TargetCriticalFrac: 0.15,
		PoolCap:            40,
		ExactPhase1b:       true,
		Seed:               1,
	}
}

// QuickConfig returns a configuration with the same model constants but a
// search budget sized for minutes instead of days: short diversification
// intervals, few rounds, hard iteration caps, and a lighter convergence
// schedule. The paper's qualitative results survive this scaling (see
// EXPERIMENTS.md).
func QuickConfig() Config {
	c := DefaultConfig()
	c.Tau = 15
	c.P1 = 3
	c.P2 = 2
	c.Div1Interval = 6
	c.MaxIter1 = 60
	c.MaxIter2 = 36
	c.Div2Interval = 6
	c.MaxTopUpBatches = 25
	return c
}

// Stats reports the work a phase performed.
type Stats struct {
	Iterations int // full passes over all links
	// Evaluations counts single-scenario network evaluations logically:
	// a Phase 2 move that a partial sum proves lost still counts every
	// scenario as evaluated, so the count does not depend on the prune.
	Evaluations int
	// Pruned counts the scenario updates Phase 2 skipped on such moves
	// (always 0 in Phase 1 and under FullEval).
	Pruned   int
	Duration time.Duration // wall time
}

// EvalsPerSec returns the evaluation throughput, the headline number the
// incremental engine moves. Zero when no time was measured.
func (s Stats) EvalsPerSec() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Evaluations) / s.Duration.Seconds()
}
