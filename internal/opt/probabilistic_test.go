package opt

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/routing"
)

func TestWeightedCostUniformMatchesSum(t *testing.T) {
	_, probs := FailureSet{Links: []int{0, 1}, Nodes: []int{2}}.scenarios()
	rs := []routing.Result{
		{Cost: cost.Cost{Lambda: 1, Phi: 10}},
		{Cost: cost.Cost{Lambda: 2, Phi: 20}},
		{Cost: cost.Cost{Lambda: 4, Phi: 40}},
	}
	got := weightedCost(probs, rs)
	if want := (cost.Cost{Lambda: 7, Phi: 70}); got != want {
		t.Errorf("uniform weightedCost = %v, want %v", got, want)
	}
}

func TestWeightedCostAppliesProbs(t *testing.T) {
	_, probs := FailureSet{
		Links:     []int{0, 1},
		LinkProbs: []float64{0.5, 0},
		Nodes:     []int{2},
		NodeProbs: []float64{2},
	}.scenarios()
	rs := []routing.Result{
		{Cost: cost.Cost{Lambda: 10, Phi: 100}},
		{Cost: cost.Cost{Lambda: 99, Phi: 999}}, // zero probability: ignored
		{Cost: cost.Cost{Lambda: 1, Phi: 10}},
	}
	got := weightedCost(probs, rs)
	want := cost.Cost{Lambda: 0.5*10 + 2*1, Phi: 0.5*100 + 2*10}
	if got != want {
		t.Errorf("weightedCost = %v, want %v", got, want)
	}
}

func TestValidateRejectsMisalignedProbs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for misaligned LinkProbs")
		}
	}()
	fs := FailureSet{Links: []int{0, 1}, LinkProbs: []float64{1}}
	fs.validate()
}

func TestSelectCriticalWeightedExcludesZeroProbLinks(t *testing.T) {
	ev := testEvaluator(t, 21)
	o := New(ev, testConfig())
	p1 := o.RunPhase1()
	o.TopUpSamples(p1)

	m := ev.Graph().NumLinks()
	// Only the first three links can fail.
	probs := make([]float64, m)
	probs[0], probs[1], probs[2] = 1, 1, 1
	critical := o.SelectCriticalWeighted(p1, 0.2, probs)
	for _, l := range critical {
		if l > 2 {
			t.Errorf("selected link %d with zero failure probability", l)
		}
	}
	if len(critical) == 0 {
		t.Error("no critical links selected")
	}
}

func TestPhase2WithWeightedObjective(t *testing.T) {
	ev := testEvaluator(t, 22)
	o := New(ev, testConfig())
	p1 := o.RunPhase1()
	o.TopUpSamples(p1)
	m := ev.Graph().NumLinks()
	probs := make([]float64, m)
	for i := range probs {
		probs[i] = 0.01
	}
	probs[0] = 1 // one link dominates the failure mass
	critical := o.SelectCriticalWeighted(p1, 0.2, probs)
	fs := FailureSet{Links: critical, LinkProbs: make([]float64, len(critical))}
	for i, l := range critical {
		fs.LinkProbs[i] = probs[l]
	}
	p2 := o.RunPhase2(p1, fs)
	if p2.BestW == nil {
		t.Fatal("no solution")
	}
	// Constraints still hold under the weighted objective.
	if p2.Normal.Cost.Lambda > p1.Best.Cost.Lambda+1e-9 {
		t.Errorf("lambda constraint violated: %g > %g", p2.Normal.Cost.Lambda, p1.Best.Cost.Lambda)
	}
}
