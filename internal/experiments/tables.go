package experiments

import (
	"fmt"

	"repro/internal/opt"
	"repro/internal/routing"
	scen "repro/internal/scenario"
	"repro/internal/topogen"
)

// Table1 reproduces Table I: accuracy of the critical search against the
// full (brute-force) search across the four topologies, for critical set
// sizes of 5%, 10% and 15% of |E|. Reported per topology: β_full (average
// SLA violations across all single link failures under the full search),
// and per fraction β_crt and β_Φ (the percent difference in compounded
// throughput-sensitive failure cost).
func Table1(o Options) (*Report, error) {
	return table1Impl(o, "table1", avgUtil(0.43), []float64{0.05, 0.10, 0.15})
}

// Table1HighLoad reproduces the Section IV-E1 high-load variant of
// Table I: RandTopo only, maximum utilization 0.9, larger critical sets.
func Table1HighLoad(o Options) (*Report, error) {
	rep := &Report{ID: "table1hl"}
	w := o.out()
	fracs := []float64{0.10, 0.20, 0.25}
	res, err := critVsFull(o, o.topos().rand, maxUtil(0.9), fracs)
	if err != nil {
		return nil, err
	}
	t := newTable("metric", "value")
	t.row("beta_full", fmtMeanStd(res.betaFull.mean, res.betaFull.std))
	rep.Add("beta_full", res.betaFull.mean)
	for i, f := range fracs {
		t.row(fmt.Sprintf("beta_crt %d%%", int(f*100)), fmtMeanStd(res.betaCrt[i].mean, res.betaCrt[i].std))
		t.row(fmt.Sprintf("beta_phi%% %d%%", int(f*100)), fmtMeanStd(res.betaPhi[i].mean, res.betaPhi[i].std))
		rep.Add(fmt.Sprintf("beta_crt_%d", int(f*100)), res.betaCrt[i].mean)
	}
	t.write(w, "High-load critical vs full search (RandTopo, max util 0.9)")
	return rep, nil
}

func table1Impl(o Options, id string, load utilTarget, fracs []float64) (*Report, error) {
	rep := &Report{ID: id}
	w := o.out()
	topos := o.topos()
	specs := []topogen.Spec{topos.rand, topos.near, topos.pl, ispSpec()}

	t := newTable(append([]string{"metric"}, specNames(specs)...)...)
	type column struct {
		util     float64
		betaFull stat
		betaCrt  []stat
		betaPhi  []stat
	}
	cols := make([]column, len(specs))
	for si, spec := range specs {
		res, err := critVsFull(o, spec, load, fracs)
		if err != nil {
			return nil, err
		}
		cols[si] = column{util: res.util, betaFull: res.betaFull, betaCrt: res.betaCrt, betaPhi: res.betaPhi}
		rep.Add("beta_full_"+spec.Kind.String(), res.betaFull.mean)
		for i, f := range fracs {
			rep.Add(fmt.Sprintf("beta_crt_%s_%d", spec.Kind.String(), int(f*100)), res.betaCrt[i].mean)
		}
	}

	cells := []string{"avg link util"}
	for _, c := range cols {
		cells = append(cells, fmt.Sprintf("%.2f", c.util))
	}
	t.row(cells...)
	cells = []string{"beta_full"}
	for _, c := range cols {
		cells = append(cells, fmtMeanStd(c.betaFull.mean, c.betaFull.std))
	}
	t.row(cells...)
	for i, f := range fracs {
		cells = []string{fmt.Sprintf("beta_crt |Ec|/|E|=%d%%", int(f*100))}
		for _, c := range cols {
			cells = append(cells, fmtMeanStd(c.betaCrt[i].mean, c.betaCrt[i].std))
		}
		t.row(cells...)
		cells = []string{fmt.Sprintf("beta_phi%% |Ec|/|E|=%d%%", int(f*100))}
		for _, c := range cols {
			cells = append(cells, fmtMeanStd(c.betaPhi[i].mean, c.betaPhi[i].std))
		}
		t.row(cells...)
	}
	t.write(w, "Table I: critical vs full search")
	return rep, nil
}

type stat struct{ mean, std float64 }

type critVsFullResult struct {
	util     float64
	betaFull stat
	betaCrt  []stat
	betaPhi  []stat
}

// critVsFull runs the shared Table I machinery for one topology: per
// repetition, one Phase 1, one full-search Phase 2, and one
// critical-search Phase 2 per fraction, all evaluated under every single
// link failure.
func critVsFull(o Options, spec topogen.Spec, load utilTarget, fracs []float64) (*critVsFullResult, error) {
	cfg := o.config()
	reps := o.reps()
	var utils, full []float64
	crt := make([][]float64, len(fracs))
	phi := make([][]float64, len(fracs))
	for r := 0; r < reps; r++ {
		sc, err := buildScenario(spec, o.Seed+int64(r)*101, load, 25)
		if err != nil {
			return nil, err
		}
		cfg.Seed = o.Seed + int64(r)*977
		op := opt.New(sc.ev, cfg)
		p1 := op.RunPhase1()
		op.TopUpSamples(p1)
		utils = append(utils, p1.Best.AvgUtil)

		all := scen.SingleLinkFailures(sc.g)
		p2full := op.RunPhase2(p1, opt.AllLinkFailures(sc.ev))
		fullSweep := scen.Runner{}.Run(sc.ev, p2full.BestW, all).Summary()
		full = append(full, fullSweep.AvgViolations)

		for i, f := range fracs {
			critical := op.SelectCritical(p1, f)
			p2 := op.RunPhase2(p1, opt.FailureSet{Links: critical})
			sweep := scen.Runner{}.Run(sc.ev, p2.BestW, all).Summary()
			crt[i] = append(crt[i], sweep.AvgViolations)
			phi[i] = append(phi[i], pct(sweep.TotalCost.Phi, fullSweep.TotalCost.Phi))
		}
	}
	res := &critVsFullResult{betaCrt: make([]stat, len(fracs)), betaPhi: make([]stat, len(fracs))}
	res.util, _ = meanStd(utils)
	res.betaFull.mean, res.betaFull.std = meanStd(full)
	for i := range fracs {
		res.betaCrt[i].mean, res.betaCrt[i].std = meanStd(crt[i])
		res.betaPhi[i].mean, res.betaPhi[i].std = meanStd(phi[i])
	}
	return res, nil
}

func specNames(specs []topogen.Spec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Kind.String()
	}
	return names
}

// Savings reproduces the Section IV-E2 computational-savings comparison:
// Phase 1 and Phase 2 wall time of the critical search (|Ec|/|E| = 0.1)
// versus the full search on a denser RandTopo.
func Savings(o Options) (*Report, error) {
	rep := &Report{ID: "savings"}
	w := o.out()
	spec := o.topos().rand
	if o.Scale != Quick {
		spec.DirectedLinks = 240 // the paper uses a 30-node, 240-link RandTopo here
	}
	sc, err := buildScenario(spec, o.Seed, avgUtil(0.43), 25)
	if err != nil {
		return nil, err
	}
	cfg := o.config()
	op := opt.New(sc.ev, cfg)
	p1 := op.RunPhase1()
	phase1Time := p1.Stats.Duration
	op.TopUpSamples(p1)
	phase1Crit := p1.Stats.Duration // includes top-up

	critical := op.SelectCritical(p1, 0.1)
	p2crit := op.RunPhase2(p1, opt.FailureSet{Links: critical})
	p2full := op.RunPhase2(p1, opt.AllLinkFailures(sc.ev))

	t := newTable("search", "phase 1 (s)", "phase 2 (s)", "phase 2 evals")
	t.row("critical", fmt.Sprintf("%.2f", phase1Crit.Seconds()), fmt.Sprintf("%.2f", p2crit.Stats.Duration.Seconds()), fmt.Sprintf("%d", p2crit.Stats.Evaluations))
	t.row("full", fmt.Sprintf("%.2f", phase1Time.Seconds()), fmt.Sprintf("%.2f", p2full.Stats.Duration.Seconds()), fmt.Sprintf("%d", p2full.Stats.Evaluations))
	t.write(w, fmt.Sprintf("Computational savings (RandTopo [%d,%d], |Ec|/|E|=0.1)", sc.g.NumNodes(), sc.g.NumLinks()))
	fmt.Fprintf(w, "critical/full phase-2 evaluation ratio: %.3f (links ratio %.3f)\n\n",
		float64(p2crit.Stats.Evaluations)/float64(p2full.Stats.Evaluations),
		float64(len(critical))/float64(sc.g.NumLinks()))

	rep.Add("phase2_evals_critical", float64(p2crit.Stats.Evaluations))
	rep.Add("phase2_evals_full", float64(p2full.Stats.Evaluations))
	rep.Add("phase2_seconds_critical", p2crit.Stats.Duration.Seconds())
	rep.Add("phase2_seconds_full", p2full.Stats.Duration.Seconds())
	rep.Add("evals_per_sec_phase1", p1.Stats.EvalsPerSec())
	rep.Add("evals_per_sec_phase2_critical", p2crit.Stats.EvalsPerSec())
	rep.Add("evals_per_sec_phase2_full", p2full.Stats.EvalsPerSec())
	fmt.Fprintf(w, "evaluation throughput: phase 1 %.0f evals/s, phase 2 critical %.0f, full %.0f\n\n",
		p1.Stats.EvalsPerSec(), p2crit.Stats.EvalsPerSec(), p2full.Stats.EvalsPerSec())
	return rep, nil
}

// Table2 reproduces Table II: SLA violations (average and worst-top-10%)
// with and without robust optimization across the four topologies, plus
// the normal-conditions throughput cost degradation the robust solution
// pays.
func Table2(o Options) (*Report, error) {
	rep := &Report{ID: "table2"}
	w := o.out()
	topos := o.topos()
	specs := []topogen.Spec{topos.rand, topos.near, topos.pl, ispSpec()}

	t := newTable(append([]string{"metric"}, specNames(specs)...)...)
	rows := map[string][]string{"avgR": nil, "avgNR": nil, "topR": nil, "topNR": nil, "deg": nil}
	for _, spec := range specs {
		cfg := o.config()
		var avgR, avgNR, topR, topNR, deg []float64
		for r := 0; r < o.reps(); r++ {
			sc, err := buildScenario(spec, o.Seed+int64(r)*131, avgUtil(0.43), 25)
			if err != nil {
				return nil, err
			}
			cfg.Seed = o.Seed + int64(r)*877
			pl := runPipeline(sc, cfg, cfg.TargetCriticalFrac)
			avgR = append(avgR, pl.robust.Summary().AvgViolations)
			avgNR = append(avgNR, pl.regular.Summary().AvgViolations)
			topR = append(topR, pl.robust.Summary().Top10Violations)
			topNR = append(topNR, pl.regular.Summary().Top10Violations)
			deg = append(deg, pct(pl.p2.Normal.Cost.Phi, pl.p1.Best.Cost.Phi))
		}
		m, s := meanStd(avgR)
		rows["avgR"] = append(rows["avgR"], fmtMeanStd(m, s))
		rep.Add("avg_robust_"+spec.Kind.String(), m)
		m2, s2 := meanStd(avgNR)
		rows["avgNR"] = append(rows["avgNR"], fmtMeanStd(m2, s2))
		rep.Add("avg_regular_"+spec.Kind.String(), m2)
		m3, s3 := meanStd(topR)
		rows["topR"] = append(rows["topR"], fmtMeanStd(m3, s3))
		m4, s4 := meanStd(topNR)
		rows["topNR"] = append(rows["topNR"], fmtMeanStd(m4, s4))
		m5, s5 := meanStd(deg)
		rows["deg"] = append(rows["deg"], fmtMeanStd(m5, s5))
		rep.Add("phi_degradation_"+spec.Kind.String(), m5)
	}
	t.row(append([]string{"avg violations (robust)"}, rows["avgR"]...)...)
	t.row(append([]string{"avg violations (no robust)"}, rows["avgNR"]...)...)
	t.row(append([]string{"top-10% violations (robust)"}, rows["topR"]...)...)
	t.row(append([]string{"top-10% violations (no robust)"}, rows["topNR"]...)...)
	t.row(append([]string{"throughput cost degradation (%)"}, rows["deg"]...)...)
	t.write(w, "Table II: SLA violations across topologies")
	return rep, nil
}

// Table3 reproduces Table III: the benefits of robust optimization as the
// RandTopo network grows (mean node degree fixed at 5).
func Table3(o Options) (*Report, error) {
	sizes := []int{30, 50, 100}
	degree := 5
	if o.Scale == Quick {
		sizes = []int{10, 14}
		degree = 4
	}
	specs := make([]topogen.Spec, len(sizes))
	labels := make([]string, len(sizes))
	for i, n := range sizes {
		specs[i] = topogen.Spec{Kind: topogen.RandKind, Nodes: n, DirectedLinks: n * degree}
		labels[i] = fmt.Sprintf("%d nodes", n)
	}
	return sizeSweep(o, "table3", "Table III: SLA violations vs network size (RandTopo)", specs, labels)
}

// Table4 reproduces Table IV: the benefits of robust optimization as the
// mean node degree of a 30-node RandTopo grows.
func Table4(o Options) (*Report, error) {
	degrees := []int{4, 6, 8}
	nodes := 30
	if o.Scale == Quick {
		nodes = 12
	}
	specs := make([]topogen.Spec, len(degrees))
	labels := make([]string, len(degrees))
	for i, d := range degrees {
		specs[i] = topogen.Spec{Kind: topogen.RandKind, Nodes: nodes, DirectedLinks: nodes * d}
		labels[i] = fmt.Sprintf("degree %d", d)
	}
	return sizeSweep(o, "table4", "Table IV: SLA violations vs mean node degree (30-node RandTopo)", specs, labels)
}

func sizeSweep(o Options, id, title string, specs []topogen.Spec, labels []string) (*Report, error) {
	rep := &Report{ID: id}
	w := o.out()
	t := newTable(append([]string{"metric"}, labels...)...)
	var avgRRow, avgNRRow, topRRow, topNRRow []string
	for si, spec := range specs {
		cfg := o.config()
		// Keep large instances affordable: budget shrinks with link count
		// so a Std run finishes in minutes (documented in DESIGN.md).
		if spec.DirectedLinks > 200 && cfg.MaxIter1 > 0 {
			shrink := float64(200) / float64(spec.DirectedLinks)
			cfg.MaxIter1 = max(8, int(float64(cfg.MaxIter1)*shrink))
			cfg.MaxIter2 = max(4, int(float64(cfg.MaxIter2)*shrink))
			cfg.MaxTopUpBatches = max(2, cfg.MaxTopUpBatches/2)
		}
		var avgR, avgNR, topR, topNR []float64
		for r := 0; r < o.reps(); r++ {
			sc, err := buildScenario(spec, o.Seed+int64(si*1009+r*131), avgUtil(0.43), 25)
			if err != nil {
				return nil, err
			}
			cfg.Seed = o.Seed + int64(r)*877
			pl := runPipeline(sc, cfg, cfg.TargetCriticalFrac)
			avgR = append(avgR, pl.robust.Summary().AvgViolations)
			avgNR = append(avgNR, pl.regular.Summary().AvgViolations)
			topR = append(topR, pl.robust.Summary().Top10Violations)
			topNR = append(topNR, pl.regular.Summary().Top10Violations)
		}
		m, s := meanStd(avgR)
		avgRRow = append(avgRRow, fmtMeanStd(m, s))
		rep.Add("avg_robust_"+labels[si], m)
		m2, s2 := meanStd(avgNR)
		avgNRRow = append(avgNRRow, fmtMeanStd(m2, s2))
		rep.Add("avg_regular_"+labels[si], m2)
		m3, s3 := meanStd(topR)
		topRRow = append(topRRow, fmtMeanStd(m3, s3))
		m4, s4 := meanStd(topNR)
		topNRRow = append(topNRRow, fmtMeanStd(m4, s4))
	}
	t.row(append([]string{"avg violations (R)"}, avgRRow...)...)
	t.row(append([]string{"avg violations (NR)"}, avgNRRow...)...)
	t.row(append([]string{"top-10% (R)"}, topRRow...)...)
	t.row(append([]string{"top-10% (NR)"}, topNRRow...)...)
	t.write(w, title)
	return rep, nil
}

// Table5 reproduces Table V: SLA violations and utilizations under
// regular and robust optimization as the SLA bound is relaxed.
func Table5(o Options) (*Report, error) {
	rep := &Report{ID: "table5"}
	w := o.out()
	bounds := []float64{25, 30, 45, 60, 100}
	if o.Scale == Quick {
		bounds = []float64{25, 100}
	}
	spec := o.topos().rand
	spec.DiameterMs = 25 // footnote 14: max end-to-end prop delay fixed at 25 ms
	cfg := o.config()

	t := newTable("SLA bound (ms)", "viol (NR)", "avg util (NR)", "max util/pair (NR)", "viol (R)", "avg util (R)", "max util/pair (R)")
	for _, theta := range bounds {
		var vNR, uNR, mNR, vR, uR, mR []float64
		for r := 0; r < o.reps(); r++ {
			sc, err := buildScenario(spec, o.Seed+int64(r)*131, avgUtil(0.43), theta)
			if err != nil {
				return nil, err
			}
			cfg.Seed = o.Seed + int64(r)*877
			pl := runPipeline(sc, cfg, cfg.TargetCriticalFrac)
			vNR = append(vNR, pl.regular.Summary().AvgViolations)
			vR = append(vR, pl.robust.Summary().AvgViolations)
			// Normal-conditions utilizations of both solutions.
			sc.ev.Detail = true
			var nr, rr routing.Result
			sc.ev.EvaluateNormal(pl.p1.BestW, &nr)
			sc.ev.EvaluateNormal(pl.p2.BestW, &rr)
			sc.ev.Detail = false
			uNR = append(uNR, nr.AvgUtil)
			uR = append(uR, rr.AvgUtil)
			mNR = append(mNR, meanPairMaxUtil(&nr, sc))
			mR = append(mR, meanPairMaxUtil(&rr, sc))
		}
		mvNR, _ := meanStd(vNR)
		muNR, _ := meanStd(uNR)
		mmNR, _ := meanStd(mNR)
		mvR, _ := meanStd(vR)
		muR, _ := meanStd(uR)
		mmR, _ := meanStd(mR)
		t.rowf("%.0f|%.2f|%.2f|%.2f|%.2f|%.2f|%.2f", theta, mvNR, muNR, mmNR, mvR, muR, mmR)
		rep.Add(fmt.Sprintf("viol_regular_theta%.0f", theta), mvNR)
		rep.Add(fmt.Sprintf("viol_robust_theta%.0f", theta), mvR)
	}
	t.write(w, "Table V: SLA violations as a function of the SLA bound (RandTopo)")
	return rep, nil
}

// meanPairMaxUtil averages the per-SD-pair maximum path utilization over
// pairs with delay-class demand.
func meanPairMaxUtil(res *routing.Result, sc *scenario) float64 {
	n := sc.g.NumNodes()
	var sum float64
	count := 0
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t || sc.demD.At(s, t) == 0 {
				continue
			}
			sum += res.PairMaxUtil[s*n+t]
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
