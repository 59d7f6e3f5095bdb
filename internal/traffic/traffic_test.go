package traffic

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 5)
	m.Set(2, 1, 2.5)
	if m.At(0, 1) != 5 || m.At(2, 1) != 2.5 || m.At(1, 0) != 0 {
		t.Errorf("At/Set broken: %v %v %v", m.At(0, 1), m.At(2, 1), m.At(1, 0))
	}
	if m.Total() != 7.5 {
		t.Errorf("Total = %g, want 7.5", m.Total())
	}
	if m.NonZeroPairs() != 2 {
		t.Errorf("NonZeroPairs = %d, want 2", m.NonZeroPairs())
	}
	m.Scale(2)
	if m.At(0, 1) != 10 {
		t.Errorf("Scale broken: %g", m.At(0, 1))
	}
}

func TestMatrixSelfDemandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set on diagonal should panic")
		}
	}()
	NewMatrix(2).Set(1, 1, 3)
}

func TestMatrixCloneIsDeep(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 1, 1)
	c := m.Clone()
	c.Set(0, 1, 9)
	if m.At(0, 1) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestColumn(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 2, 4)
	m.Set(1, 2, 6)
	col := make([]float64, 3)
	m.Column(2, col)
	if col[0] != 4 || col[1] != 6 || col[2] != 0 {
		t.Errorf("Column = %v", col)
	}
}

func TestGravityTotalsAndCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d, th := Gravity(10, 1000, 0.3, rng)
	if math.Abs(d.Total()-300) > 1e-6 {
		t.Errorf("delay total = %g, want 300", d.Total())
	}
	if math.Abs(th.Total()-700) > 1e-6 {
		t.Errorf("throughput total = %g, want 700", th.Total())
	}
	// The paper assumes every SD pair generates delay-sensitive traffic.
	if d.NonZeroPairs() != 10*9 {
		t.Errorf("delay matrix covers %d pairs, want 90", d.NonZeroPairs())
	}
	if th.NonZeroPairs() != 10*9 {
		t.Errorf("throughput matrix covers %d pairs, want 90", th.NonZeroPairs())
	}
}

func TestGravityDeterministicPerSeed(t *testing.T) {
	d1, _ := Gravity(6, 100, 0.3, rand.New(rand.NewSource(1)))
	d2, _ := Gravity(6, 100, 0.3, rand.New(rand.NewSource(1)))
	d3, _ := Gravity(6, 100, 0.3, rand.New(rand.NewSource(2)))
	same, diff := true, false
	for s := 0; s < 6; s++ {
		for u := 0; u < 6; u++ {
			if d1.At(s, u) != d2.At(s, u) {
				same = false
			}
			if d1.At(s, u) != d3.At(s, u) {
				diff = true
			}
		}
	}
	if !same {
		t.Error("same seed must reproduce the same matrix")
	}
	if !diff {
		t.Error("different seeds should differ")
	}
}

func TestGravityRejectsBadFraction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for delayFrac > 1")
		}
	}()
	Gravity(4, 100, 1.5, rand.New(rand.NewSource(1)))
}

func TestFluctuatePreservesZerosAndSign(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMatrix(4)
	m.Set(0, 1, 100)
	m.Set(1, 2, 50)
	f := m.Fluctuate(0.2, rng)
	if f.At(0, 2) != 0 || f.At(2, 0) != 0 {
		t.Error("zero demands must stay zero")
	}
	for s := 0; s < 4; s++ {
		for u := 0; u < 4; u++ {
			if f.At(s, u) < 0 {
				t.Errorf("negative demand %g at (%d,%d)", f.At(s, u), s, u)
			}
		}
	}
	if f.At(0, 1) == m.At(0, 1) && f.At(1, 2) == m.At(1, 2) {
		t.Error("fluctuation changed nothing")
	}
}

func TestFluctuateMagnitude(t *testing.T) {
	// With ε=0.2 the perturbed demand stays within ±40% of the mean about
	// 95% of the time (2σ), which the paper uses as its interpretation.
	rng := rand.New(rand.NewSource(3))
	m := NewMatrix(2)
	m.Set(0, 1, 100)
	within := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		f := m.Fluctuate(0.2, rng)
		if v := f.At(0, 1); v >= 60 && v <= 140 {
			within++
		}
	}
	frac := float64(within) / trials
	if frac < 0.92 || frac > 0.98 {
		t.Errorf("fraction within ±40%% = %g, want ≈0.95", frac)
	}
}

func TestHotspotScalesSelectedPairsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 20
	d, th := Gravity(n, 1000, 0.3, rng)
	h := DefaultHotspot(true)
	d2, t2 := h.Apply(d, th, rng)

	changedD, changedT := 0, 0
	for s := 0; s < n; s++ {
		for u := 0; u < n; u++ {
			if s == u {
				continue
			}
			rd := d2.At(s, u) / d.At(s, u)
			rt := t2.At(s, u) / th.At(s, u)
			if rd != 1 {
				changedD++
				if rd < h.MinFactor-1e-9 || rd > h.MaxFactor+1e-9 {
					t.Errorf("delay surge factor %g out of [%g,%g]", rd, h.MinFactor, h.MaxFactor)
				}
			}
			if rt != 1 {
				changedT++
				if rt < h.MinFactor-1e-9 || rt > h.MaxFactor+1e-9 {
					t.Errorf("throughput surge factor %g out of bounds", rt)
				}
			}
		}
	}
	// 50% of 20 nodes are clients; each surges exactly one pair.
	if changedD != 10 || changedT != 10 {
		t.Errorf("changed pairs = %d/%d, want 10/10", changedD, changedT)
	}
	// Originals untouched.
	if d.Total() == d2.Total() {
		t.Error("surge should increase total traffic")
	}
}

func TestHotspotUploadDirection(t *testing.T) {
	// In the upload scenario the scaled pairs are client→server; in a
	// download they are server→client. Verify the direction flag by
	// checking that the set of changed rows differs between modes with
	// the same assignment seed.
	n := 10
	base, baseT := Gravity(n, 100, 0.3, rand.New(rand.NewSource(5)))
	up, _ := DefaultHotspot(false).Apply(base, baseT, rand.New(rand.NewSource(9)))
	down, _ := DefaultHotspot(true).Apply(base, baseT, rand.New(rand.NewSource(9)))
	upChanged := map[[2]int]bool{}
	downChanged := map[[2]int]bool{}
	for s := 0; s < n; s++ {
		for u := 0; u < n; u++ {
			if s == u {
				continue
			}
			if up.At(s, u) != base.At(s, u) {
				upChanged[[2]int{s, u}] = true
			}
			if down.At(s, u) != base.At(s, u) {
				downChanged[[2]int{s, u}] = true
			}
		}
	}
	if len(upChanged) == 0 || len(downChanged) == 0 {
		t.Fatal("no surged pairs")
	}
	for p := range upChanged {
		if !downChanged[[2]int{p[1], p[0]}] {
			t.Errorf("upload pair %v has no mirrored download pair", p)
		}
	}
}

func TestHotspotTinyNetwork(t *testing.T) {
	// Must not panic when fractions round to zero nodes.
	d, th := Gravity(3, 10, 0.5, rand.New(rand.NewSource(2)))
	h := DefaultHotspot(true)
	d2, t2 := h.Apply(d, th, rand.New(rand.NewSource(2)))
	if d2 == nil || t2 == nil {
		t.Fatal("nil result")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 1.5)
	m.Set(2, 0, 2.25)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Matrix
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		for u := 0; u < 3; u++ {
			if m.At(s, u) != back.At(s, u) {
				t.Errorf("(%d,%d): %g vs %g", s, u, m.At(s, u), back.At(s, u))
			}
		}
	}
}

func TestJSONRejectsBadShape(t *testing.T) {
	var m Matrix
	if err := json.Unmarshal([]byte(`{"n":2,"demands":[1,2,3]}`), &m); err == nil {
		t.Error("accepted wrong-size matrix")
	}
	if err := json.Unmarshal([]byte(`{"n":2,"demands":[5,0,0,0]}`), &m); err == nil {
		t.Error("accepted nonzero diagonal")
	}
	if err := json.Unmarshal([]byte(`{"n":-1,"demands":[0]}`), &m); err == nil {
		t.Error("accepted negative size")
	}
	// 2^32 squared wraps to 0 in int: the empty entry list must not pass
	// for a 2^32-node matrix (it used to, and the diagonal check then
	// indexed past the end).
	if err := json.Unmarshal([]byte(`{"n":4294967296,"demands":[]}`), &m); err == nil {
		t.Error("accepted a size whose square overflows")
	}
}

// TestNegativeDemandsRejected: Validate names the first negative or NaN
// demand, and the JSON decoder refuses a matrix holding one without
// touching its target.
func TestNegativeDemandsRejected(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 2)
	if err := m.Validate(); err != nil {
		t.Fatalf("nonnegative matrix rejected: %v", err)
	}
	m.Set(2, 1, -1000)
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "from 2 to 1") {
		t.Errorf("negative demand: Validate = %v", err)
	}
	m.Set(2, 1, math.NaN())
	if err := m.Validate(); err == nil {
		t.Error("NaN demand passed Validate")
	}
	back := NewMatrix(1)
	if err := json.Unmarshal([]byte(`{"n":2,"demands":[0,-1000,3,0]}`), back); err == nil {
		t.Error("decoded a matrix with a negative demand")
	}
	if back.Size() != 1 {
		t.Errorf("rejected decode changed the target to size %d", back.Size())
	}
}

func TestQuickFluctuateMeanPreserved(t *testing.T) {
	// Averaged over many draws, fluctuation is unbiased (up to clamping
	// at zero, negligible for ε=0.2).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMatrix(2)
		m.Set(0, 1, 10)
		var sum float64
		const k = 400
		for i := 0; i < k; i++ {
			sum += m.Fluctuate(0.2, rng).At(0, 1)
		}
		mean := sum / k
		return mean > 9 && mean < 11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuickGravityScalesLinearly(t *testing.T) {
	f := func(seed int64) bool {
		rng1 := rand.New(rand.NewSource(seed))
		rng2 := rand.New(rand.NewSource(seed))
		d1, _ := Gravity(8, 100, 0.3, rng1)
		d2, _ := Gravity(8, 200, 0.3, rng2)
		for s := 0; s < 8; s++ {
			for u := 0; u < 8; u++ {
				if math.Abs(d2.At(s, u)-2*d1.At(s, u)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
