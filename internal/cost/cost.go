// Package cost implements the paper's cost models: the link delay model
// (Eq. 1: propagation plus an M/M/1 queueing approximation above a load
// threshold, linearized near saturation), the SLA penalty of
// delay-sensitive traffic (Eq. 2), the Fortz–Thorup piecewise-linear
// congestion cost of throughput-sensitive traffic, and the lexicographic
// global cost K = ⟨Λ, Φ⟩ with its ordering.
package cost

import "math"

// Params collects the model constants. Use DefaultParams for the values
// used throughout the paper's evaluation.
type Params struct {
	// PacketBits is the average packet size κ in bits (Eq. 1b).
	PacketBits float64
	// Mu is the utilization threshold below which queueing delay is
	// treated as negligible (Eq. 1a).
	Mu float64
	// LinearizeAt is the utilization at which x/(C−x) is continued
	// linearly to avoid the discontinuity as x → C (paper footnote 3).
	LinearizeAt float64
	// ThetaMs is the SLA end-to-end delay bound θ in ms.
	ThetaMs float64
	// B1 is the fixed penalty per SLA violation; B2 the per-ms penalty on
	// delay in excess of θ (Eq. 2b).
	B1, B2 float64
	// DropExcessMs is the excess delay charged to a delay-sensitive pair
	// whose source is disconnected from its destination (a modeling
	// choice documented in DESIGN.md; the paper's scenarios rarely
	// disconnect).
	DropExcessMs float64
}

// DefaultParams returns the constants used in the paper's evaluation:
// κ = 1500 bytes, µ = 0.95, linearization at 0.99, θ = 25 ms, B1 = 100,
// B2 = 1.
func DefaultParams() Params {
	return Params{
		PacketBits:   1500 * 8,
		Mu:           0.95,
		LinearizeAt:  0.99,
		ThetaMs:      25,
		B1:           100,
		B2:           1,
		DropExcessMs: 25,
	}
}

// LinkDelayMs returns the delay of a link in ms per Eq. (1): the
// propagation delay propMs when utilization is at most µ, plus an M/M/1
// queueing term above it. loadMbps is the total (both-class) traffic on
// the link; capMbps its capacity.
func (p Params) LinkDelayMs(loadMbps, capMbps, propMs float64) float64 {
	util := loadMbps / capMbps
	if util <= p.Mu {
		return propMs
	}
	// κ/C in ms: κ in Mbit divided by C in Mbps gives seconds.
	perPacketMs := p.PacketBits / 1e6 / capMbps * 1e3
	return perPacketMs*p.queueFactor(loadMbps, capMbps) + propMs
}

// queueFactor evaluates g(x) = x/(C−x) + 1, continued linearly above the
// linearization utilization so it stays finite and increasing for any
// load, including loads beyond capacity.
func (p Params) queueFactor(x, c float64) float64 {
	knee := p.LinearizeAt * c
	if x < knee {
		return x/(c-x) + 1
	}
	// Value and slope of g at the knee: g = u/(1−u)+1, g' = C/(C−x)².
	u := p.LinearizeAt
	gKnee := u/(1-u) + 1
	slope := c / ((c - knee) * (c - knee))
	return gKnee + slope*(x-knee)
}

// SLAPenalty returns the cost Λ(s,t) of one delay-sensitive pair whose
// end-to-end delay is delayMs (Eq. 2): zero within the bound, B1 plus
// B2·(excess) beyond it.
func (p Params) SLAPenalty(delayMs float64) float64 {
	if delayMs <= p.ThetaMs {
		return 0
	}
	return p.B1 + p.B2*(delayMs-p.ThetaMs)
}

// Violated reports whether delayMs breaks the SLA bound.
func (p Params) Violated(delayMs float64) bool { return delayMs > p.ThetaMs }

// DropPenalty is the Λ contribution of a disconnected delay-sensitive
// pair.
func (p Params) DropPenalty() float64 {
	return p.B1 + p.B2*p.DropExcessMs
}

// FortzThorup evaluates the classic piecewise-linear link congestion cost
// φ(x) for load x on a link of capacity c. φ is continuous, convex,
// increasing, with φ(0) = 0 and derivative 1, 3, 10, 70, 500, 5000 on the
// utilization intervals [0,1/3), [1/3,2/3), [2/3,9/10), [9/10,1),
// [1,11/10), [11/10,∞).
func FortzThorup(x, c float64) float64 {
	switch u := x / c; {
	case u < 1.0/3:
		return x
	case u < 2.0/3:
		return 3*x - 2.0/3*c
	case u < 0.9:
		return 10*x - 16.0/3*c
	case u < 1:
		return 70*x - 178.0/3*c
	case u < 1.1:
		return 500*x - 1468.0/3*c
	default:
		return 5000*x - 16318.0/3*c
	}
}

// Cost is the global lexicographic network cost K = ⟨Λ, Φ⟩.
type Cost struct {
	Lambda float64 // SLA penalty of delay-sensitive traffic
	Phi    float64 // congestion cost of throughput-sensitive traffic
}

// lambdaTol is the tolerance under which two Λ values are considered
// "essentially the same" for the lexicographic ordering. Λ is quantized
// by the B1=100 penalty steps plus ms-scale excess terms, so a tiny
// absolute tolerance only absorbs floating-point noise.
const lambdaTol = 1e-9

// Less reports whether k is strictly better (smaller) than other in the
// lexicographic order of Section III: smaller Λ wins; equal Λ falls back
// to Φ.
func (k Cost) Less(other Cost) bool {
	switch {
	case k.Lambda < other.Lambda-lambdaTol:
		return true
	case k.Lambda > other.Lambda+lambdaTol:
		return false
	default:
		return k.Phi < other.Phi
	}
}

// sumMargin is the relative margin a partial sum must clear before it
// proves anything about its total (see ProvesNotLess). Two summation
// orders of the same n nonnegative terms differ by less than 2n·2⁻⁵³
// relative, so 1e-12 covers totals of up to about 1,100 terms with room
// to spare; longer totals use n·2⁻⁵⁰.
const sumMargin = 1e-12

// ProvesNotLess reports whether partial, the sum of some of the
// nonnegative terms of an n-term total, already proves that the total is
// not Less than other, whatever the remaining terms and whichever order
// either sum adds them in. A total is not Less than other when its Λ
// exceeds other's beyond lambdaTol, or when its Λ reaches other's minus
// lambdaTol while its Φ reaches other's Φ. A partial sum only grows
// toward its total, so either test passed by partial, with the relative
// rounding margin to spare, holds for the total too. A NaN anywhere
// proves nothing. The caller guarantees the premise: no term is
// negative.
func (partial Cost) ProvesNotLess(other Cost, n int) bool {
	keep := 1 - max(sumMargin, float64(n)*0x1p-50)
	lambda, phi := partial.Lambda*keep, partial.Phi*keep
	return lambda > other.Lambda+lambdaTol ||
		lambda >= other.Lambda-lambdaTol && phi >= other.Phi
}

// NonnegativePenalties reports whether every penalty constant of the
// SLA cost (B1, B2, DropExcessMs) is a nonnegative number, so that no
// pair's Λ term can be negative.
func (p Params) NonnegativePenalties() bool {
	return p.B1 >= 0 && p.B2 >= 0 && p.DropExcessMs >= 0
}

// Compare returns -1, 0 or +1 as k is better than, equivalent to, or
// worse than other.
func (k Cost) Compare(other Cost) int {
	if k.Less(other) {
		return -1
	}
	if other.Less(k) {
		return 1
	}
	return 0
}

// Add returns the componentwise sum, used to compound costs over failure
// scenarios (Λ_fail := Σ_l Λ_fail,l and likewise for Φ).
func (k Cost) Add(other Cost) Cost {
	return Cost{Lambda: k.Lambda + other.Lambda, Phi: k.Phi + other.Phi}
}

// SameLambda reports whether the Λ components are equal within tolerance,
// the equality used by the robustness constraint of Eq. (5).
func (k Cost) SameLambda(other Cost) bool {
	return math.Abs(k.Lambda-other.Lambda) <= lambdaTol
}
