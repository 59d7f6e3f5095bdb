package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/routing"
	scen "repro/internal/scenario"
)

// AblationSelectors compares the paper's distributional critical-link
// selector against the three prior-work baselines at equal |Ec| (Section
// IV-C's motivating comparison): random [Yuan 24], load-based [Fortz &
// Thorup 10], and threshold-crossing [Sridharan & Guérin 23]. All four
// share the same Phase 1 run; each drives its own Phase 2.
func AblationSelectors(o Options) (*Report, error) {
	rep := &Report{ID: "ablation-selector"}
	w := o.out()
	sc, err := buildScenario(o.topos().rand, o.Seed, avgUtil(0.43), 25)
	if err != nil {
		return nil, err
	}
	cfg := o.config()
	op := opt.New(sc.ev, cfg)
	p1 := op.RunPhase1()
	op.TopUpSamples(p1)

	m := sc.g.NumLinks()
	n := max(1, int(cfg.TargetCriticalFrac*float64(m)))

	// Utilization of the regular solution for the load-based baseline.
	sc.ev.Detail = true
	var normal routing.Result
	sc.ev.EvaluateNormal(p1.BestW, &normal)
	sc.ev.Detail = false
	util := make([]float64, m)
	for li := 0; li < m; li++ {
		util[li] = normal.LoadTotal[li] / sc.g.Link(li).Capacity
	}

	selectors := []struct {
		name  string
		links []int
	}{
		{"distributional (ours)", op.SelectCritical(p1, cfg.TargetCriticalFrac)},
		{"random [Yuan]", core.RandomSelect(m, n, rand.New(rand.NewSource(o.Seed+5)))},
		{"load-based [Fortz]", core.LoadBasedSelect(util, n)},
		{"threshold [Sridharan]", core.ThresholdSelect(p1.Sampler, n, 0.75)},
	}

	all := scen.SingleLinkFailures(sc.g)
	t := newTable("selector", "|Ec|", "avg violations", "top-10%", "phi_fail")
	for _, sel := range selectors {
		p2 := op.RunPhase2(p1, opt.FailureSet{Links: sel.links})
		sweep := scen.Runner{}.Run(sc.ev, p2.BestW, all).Summary()
		t.row(sel.name, fmt.Sprintf("%d", len(sel.links)),
			fmt.Sprintf("%.2f", sweep.AvgViolations), fmt.Sprintf("%.2f", sweep.Top10Violations),
			fmt.Sprintf("%.3g", sweep.TotalCost.Phi))
		rep.Add("avg_viol_"+sel.name, sweep.AvgViolations)
	}
	t.write(w, "Ablation: critical-link selectors at equal |Ec|")
	return rep, nil
}

// AblationTail probes the sensitivity of the criticality definition to
// the left-tail fraction (the paper fixes 10%): the same samples are
// re-estimated with 5%, 10% and 20% tails and each selection drives a
// Phase 2.
func AblationTail(o Options) (*Report, error) {
	rep := &Report{ID: "ablation-tail"}
	w := o.out()
	sc, err := buildScenario(o.topos().rand, o.Seed, avgUtil(0.43), 25)
	if err != nil {
		return nil, err
	}
	cfg := o.config()
	op := opt.New(sc.ev, cfg)
	p1 := op.RunPhase1()
	op.TopUpSamples(p1)
	m := sc.g.NumLinks()
	n := max(1, int(cfg.TargetCriticalFrac*float64(m)))
	all := scen.SingleLinkFailures(sc.g)

	base := core.Select(p1.Sampler.EstimateTail(0.10), n)
	t := newTable("tail", "avg violations", "top-10%", "overlap with 10%")
	for _, tail := range []float64{0.05, 0.10, 0.20} {
		critical := core.Select(p1.Sampler.EstimateTail(tail), n)
		p2 := op.RunPhase2(p1, opt.FailureSet{Links: critical})
		sweep := scen.Runner{}.Run(sc.ev, p2.BestW, all).Summary()
		t.row(fmt.Sprintf("%.0f%%", tail*100),
			fmt.Sprintf("%.2f", sweep.AvgViolations), fmt.Sprintf("%.2f", sweep.Top10Violations),
			fmt.Sprintf("%.2f", overlap(critical, base)))
		rep.Add(fmt.Sprintf("avg_viol_tail%.0f", tail*100), sweep.AvgViolations)
	}
	t.write(w, "Ablation: left-tail fraction sensitivity")
	return rep, nil
}

// overlap returns |a∩b| / |b|.
func overlap(a, b []int) float64 {
	if len(b) == 0 {
		return 0
	}
	in := map[int]bool{}
	for _, x := range a {
		in[x] = true
	}
	hits := 0
	for _, x := range b {
		if in[x] {
			hits++
		}
	}
	return float64(hits) / float64(len(b))
}

// AblationQ probes the failure-emulation threshold q: lower q yields more
// samples per unit of search (any largish weight counts as a failure)
// but emulates failures less faithfully; higher q the reverse. The paper
// picks 0.7 as the compromise.
func AblationQ(o Options) (*Report, error) {
	rep := &Report{ID: "ablation-q"}
	w := o.out()
	t := newTable("q", "samples", "min/link", "converged", "avg violations")
	for _, q := range []float64{0.5, 0.7, 0.9} {
		sc, err := buildScenario(o.topos().rand, o.Seed, avgUtil(0.43), 25)
		if err != nil {
			return nil, err
		}
		cfg := o.config()
		cfg.Q = q
		cfg.ExactPhase1b = false // this ablation probes the emulation path
		op := opt.New(sc.ev, cfg)
		p1 := op.RunPhase1()
		harvested := p1.Sampler.Total()
		op.TopUpSamples(p1)
		critical := op.SelectCritical(p1, cfg.TargetCriticalFrac)
		p2 := op.RunPhase2(p1, opt.FailureSet{Links: critical})
		sweep := scen.Runner{}.Run(sc.ev, p2.BestW, scen.SingleLinkFailures(sc.g)).Summary()
		t.row(fmt.Sprintf("%.1f", q), fmt.Sprintf("%d", harvested),
			fmt.Sprintf("%d", p1.Sampler.MinCount()),
			fmt.Sprintf("%v", p1.Converged),
			fmt.Sprintf("%.2f", sweep.AvgViolations))
		rep.Add(fmt.Sprintf("samples_q%.1f", q), float64(harvested))
		rep.Add(fmt.Sprintf("avg_viol_q%.1f", q), sweep.AvgViolations)
	}
	t.write(w, "Ablation: failure-emulation threshold q")
	return rep, nil
}
