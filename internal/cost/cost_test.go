package cost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinkDelayBelowThreshold(t *testing.T) {
	p := DefaultParams()
	// At or below µ·C the delay is pure propagation.
	for _, load := range []float64{0, 100, 250, 475} {
		if got := p.LinkDelayMs(load, 500, 7); got != 7 {
			t.Errorf("LinkDelayMs(%g) = %g, want 7", load, got)
		}
	}
}

func TestLinkDelayPaperCheckpoint(t *testing.T) {
	// The paper states that a 95% load on the evaluation configuration
	// corresponds to an average queueing delay of just under 0.5 ms.
	p := DefaultParams()
	queueing := p.LinkDelayMs(475.0000001, 500, 0)
	if queueing < 0.4 || queueing > 0.5 {
		t.Errorf("queueing delay at 95%% load = %g ms, want just under 0.5", queueing)
	}
}

func TestLinkDelayMonotoneInLoad(t *testing.T) {
	p := DefaultParams()
	prev := -1.0
	for load := 0.0; load <= 700; load += 2.5 {
		d := p.LinkDelayMs(load, 500, 5)
		if d < prev {
			t.Fatalf("delay decreased at load %g: %g < %g", load, d, prev)
		}
		prev = d
	}
}

func TestLinkDelayContinuousAtLinearization(t *testing.T) {
	p := DefaultParams()
	c := 500.0
	knee := p.LinearizeAt * c
	below := p.LinkDelayMs(knee-1e-6, c, 0)
	above := p.LinkDelayMs(knee+1e-6, c, 0)
	if math.Abs(below-above) > 1e-3 {
		t.Errorf("discontinuity at linearization knee: %g vs %g", below, above)
	}
}

func TestLinkDelayFiniteBeyondCapacity(t *testing.T) {
	p := DefaultParams()
	d := p.LinkDelayMs(1000, 500, 5)
	if math.IsInf(d, 0) || math.IsNaN(d) || d <= 5 {
		t.Errorf("overloaded link delay = %g, want finite > prop", d)
	}
}

func TestSLAPenalty(t *testing.T) {
	p := DefaultParams()
	cases := []struct {
		delay, want float64
	}{
		{0, 0},
		{25, 0},       // exactly at bound: no violation
		{25.5, 100.5}, // B1 + B2*0.5
		{30, 105},
		{125, 200},
	}
	for _, tc := range cases {
		if got := p.SLAPenalty(tc.delay); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("SLAPenalty(%g) = %g, want %g", tc.delay, got, tc.want)
		}
	}
	if p.Violated(25) {
		t.Error("delay equal to bound must not violate")
	}
	if !p.Violated(25.0001) {
		t.Error("delay above bound must violate")
	}
}

func TestDropPenaltyExceedsAnyInBoundCost(t *testing.T) {
	p := DefaultParams()
	if p.DropPenalty() <= p.B1 {
		t.Errorf("DropPenalty = %g, want > B1", p.DropPenalty())
	}
}

func TestFortzThorupKnownValues(t *testing.T) {
	c := 300.0
	cases := []struct {
		x, want float64
	}{
		{0, 0},
		{50, 50},                 // slope 1 region
		{100, 100},               // boundary u=1/3 handled by next region: 3*100-200=100
		{150, 250},               // 3*150 - 200
		{250, 900},               // 10*250 - 1600
		{280, 1800},              // 70*280 - 17800... compute: 70*280 - 178/3*300 = 19600-17800=1800
		{300, 3200},              // 500*300 - 1468/3*300 = 150000-146800=3200
		{360, 1800000 - 1631800}, // 5000*360 - 16318/3*300
	}
	for _, tc := range cases {
		if got := FortzThorup(tc.x, c); math.Abs(got-tc.want) > 1e-9*math.Max(1, math.Abs(tc.want)) {
			t.Errorf("FortzThorup(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
}

func TestQuickFortzThorupConvexIncreasing(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := 100 + r.Float64()*900
		x1 := r.Float64() * 1.5 * c
		x2 := x1 + r.Float64()*0.2*c
		x3 := x2 + r.Float64()*0.2*c
		y1, y2, y3 := FortzThorup(x1, c), FortzThorup(x2, c), FortzThorup(x3, c)
		if y2 < y1-1e-9 || y3 < y2-1e-9 {
			return false // not increasing
		}
		// Convexity: slope between (x1,x2) <= slope between (x2,x3).
		if x2 > x1 && x3 > x2 {
			s12 := (y2 - y1) / (x2 - x1)
			s23 := (y3 - y2) / (x3 - x2)
			if s12 > s23+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFortzThorupContinuity(t *testing.T) {
	c := 500.0
	for _, u := range []float64{1.0 / 3, 2.0 / 3, 0.9, 1.0, 1.1} {
		x := u * c
		lo := FortzThorup(x-1e-7, c)
		hi := FortzThorup(x+1e-7, c)
		if math.Abs(hi-lo) > 1e-2 {
			t.Errorf("discontinuity at u=%g: %g vs %g", u, lo, hi)
		}
	}
}

func TestCostLexicographicOrder(t *testing.T) {
	cases := []struct {
		a, b Cost
		want int
	}{
		{Cost{0, 5}, Cost{0, 7}, -1},
		{Cost{0, 7}, Cost{0, 5}, 1},
		{Cost{0, 5}, Cost{0, 5}, 0},
		{Cost{100, 1}, Cost{0, 1e9}, 1}, // Λ dominates Φ entirely
		{Cost{0, 1e9}, Cost{100, 1}, -1},
		{Cost{200, 3}, Cost{200, 3}, 0},
	}
	for _, tc := range cases {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestQuickLexOrderTotalAndTransitive(t *testing.T) {
	gen := func(r *rand.Rand) Cost {
		// Λ values are multiples of 100 plus small excesses, like real ones.
		return Cost{Lambda: float64(r.Intn(4)) * 100, Phi: r.Float64() * 10}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := gen(r), gen(r), gen(r)
		// Antisymmetry.
		if a.Less(b) && b.Less(a) {
			return false
		}
		// Totality: exactly one of <, >, == holds.
		cmp := a.Compare(b)
		if cmp < -1 || cmp > 1 {
			return false
		}
		// Transitivity of Less.
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCostAdd(t *testing.T) {
	got := Cost{1, 2}.Add(Cost{10, 20})
	if got != (Cost{11, 22}) {
		t.Errorf("Add = %v", got)
	}
}

func TestSameLambdaTolerance(t *testing.T) {
	a := Cost{Lambda: 100, Phi: 1}
	b := Cost{Lambda: 100 + 1e-12, Phi: 9}
	if !a.SameLambda(b) {
		t.Error("float noise should not break Λ equality")
	}
	c := Cost{Lambda: 200, Phi: 1}
	if a.SameLambda(c) {
		t.Error("distinct Λ must not be equal")
	}
}

// TestProvesNotLessBranches pins each way a partial sum can and cannot
// prove a total not Less than a bound.
func TestProvesNotLessBranches(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name           string
		partial, other Cost
		want           bool
	}{
		{"lambda above bound", Cost{10, 0}, Cost{5, 100}, true},
		{"lambda within tolerance, phi at bound", Cost{5, 100}, Cost{5 + 5e-10, 50}, true},
		{"lambda within tolerance, phi below", Cost{5, 40}, Cost{5, 50}, false},
		{"phi above but lambda below", Cost{4, 1000}, Cost{5, 50}, false},
		{"lambda just below tolerance, phi above", Cost{5 - 2e-9, 1000}, Cost{5, 50}, false},
		{"lambda above bound by less than the margin", Cost{1e6 + 2e-9, 0}, Cost{1e6, 0}, false},
		{"phi equal to bound needs the margin", Cost{5, 50}, Cost{5, 50}, false},
		{"zero against zero", Cost{}, Cost{}, true},
		{"NaN partial", Cost{nan, nan}, Cost{5, 50}, false},
		{"NaN bound", Cost{10, 100}, Cost{nan, nan}, false},
	}
	for _, tc := range cases {
		if got := tc.partial.ProvesNotLess(tc.other, 27); got != tc.want {
			t.Errorf("%s: %+v.ProvesNotLess(%+v) = %v, want %v", tc.name, tc.partial, tc.other, got, tc.want)
		}
	}
}

// TestQuickProvesNotLessSound: for random nonnegative terms, any partial
// sum in any order that proves the total not Less than a bound is right
// about the index-order total, including bounds placed within rounding
// distance of that total.
func TestQuickProvesNotLessSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	proofs := 0
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(40)
		terms := make([]Cost, n)
		var total Cost
		for i := range terms {
			if rng.Intn(3) > 0 {
				terms[i] = Cost{Lambda: float64(rng.Intn(3)) * 100 * rng.Float64(), Phi: rng.ExpFloat64() * 1e3}
			}
			total = total.Add(terms[i])
		}
		// Bounds at, just above and just below the total, componentwise.
		jitter := func(v float64) float64 {
			return v * (1 + float64(rng.Intn(5)-2)*1e-15)
		}
		other := Cost{Lambda: jitter(total.Lambda), Phi: jitter(total.Phi)}
		if rng.Intn(2) == 0 {
			other.Lambda += float64(rng.Intn(3)-1) * lambdaTol
		}
		var partial Cost
		for _, i := range rng.Perm(n)[:1+rng.Intn(n)] {
			partial = partial.Add(terms[i])
		}
		if partial.ProvesNotLess(other, n) {
			proofs++
			if total.Less(other) {
				t.Fatalf("partial %+v proved %+v not Less than %+v, but it is", partial, total, other)
			}
		}
	}
	if proofs == 0 {
		t.Fatal("no trial produced a proof")
	}
}

func TestNonnegativePenalties(t *testing.T) {
	if !DefaultParams().NonnegativePenalties() {
		t.Error("paper constants reported negative")
	}
	for _, set := range []func(*Params){
		func(p *Params) { p.B1 = -100 },
		func(p *Params) { p.B2 = -1 },
		func(p *Params) { p.DropExcessMs = -25 },
		func(p *Params) { p.B2 = math.NaN() },
	} {
		p := DefaultParams()
		set(&p)
		if p.NonnegativePenalties() {
			t.Errorf("%+v reported nonnegative", p)
		}
	}
}
