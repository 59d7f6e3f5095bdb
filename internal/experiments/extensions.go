package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/design"
	"repro/internal/routing"
	scen "repro/internal/scenario"
	"repro/internal/topogen"
)

// ExtDoubleFailure probes the paper's footnote-16 observation beyond its
// headline single-link scope: a routing optimized to withstand all
// single link failures should also mitigate double link failures, even
// though they were never part of its objective. Random pairs of distinct
// directed links fail together; the regular and robust solutions are
// compared on violations per scenario.
func ExtDoubleFailure(o Options) (*Report, error) {
	rep := &Report{ID: "ext-double"}
	w := o.out()
	sc, err := buildScenario(o.topos().rand, o.Seed, avgUtil(0.43), 25)
	if err != nil {
		return nil, err
	}
	cfg := o.config()
	pl := runPipeline(sc, cfg, cfg.TargetCriticalFrac)

	pairs := 100
	if o.Scale == Quick {
		pairs = 25
	}
	set := scen.DualLinkFailures(sc.g, pairs, o.Seed+4242)
	regular := scen.Runner{}.Run(sc.ev, pl.p1.BestW, set).Summary()
	robust := scen.Runner{}.Run(sc.ev, pl.p2.BestW, set).Summary()
	t := newTable("routing", "avg violations", "worst scenario")
	t.rowf("regular|%.2f|%d", regular.AvgViolations, regular.WorstViolations)
	t.rowf("robust (single-link objective)|%.2f|%d", robust.AvgViolations, robust.WorstViolations)
	t.write(w, fmt.Sprintf("Extension: %d random double link failures", pairs))
	rep.Add("avg_viol_regular", regular.AvgViolations)
	rep.Add("avg_viol_robust", robust.AvgViolations)
	return rep, nil
}

// AblationDelayMetric probes the SLA accounting choice DESIGN.md calls
// out: charging each pair the worst delay over its ECMP paths
// (conservative, the default) versus the expected delay under even
// splitting. Both run the full pipeline; the final solutions are scored
// under BOTH metrics so the trade-off is visible.
func AblationDelayMetric(o Options) (*Report, error) {
	rep := &Report{ID: "ablation-metric"}
	w := o.out()
	cfg := o.config()

	t := newTable("optimized under", "scored worst-path", "scored mean-path")
	for _, metric := range []routing.DelayMetric{routing.WorstPath, routing.MeanPath} {
		sc, err := buildScenario(o.topos().rand, o.Seed, avgUtil(0.43), 25)
		if err != nil {
			return nil, err
		}
		// Rewire the evaluator with the metric under test.
		ev := routing.NewEvaluator(sc.g, sc.demD, sc.demT, sc.ev.Params(), metric)
		sc.ev = ev
		pl := runPipeline(sc, cfg, cfg.TargetCriticalFrac)

		// Score the robust solution under both accounting rules.
		scores := map[routing.DelayMetric]float64{}
		for _, scoreMetric := range []routing.DelayMetric{routing.WorstPath, routing.MeanPath} {
			sev := routing.NewEvaluator(sc.g, sc.demD, sc.demT, sc.ev.Params(), scoreMetric)
			sweep := scen.Runner{}.Run(sev, pl.p2.BestW, scen.SingleLinkFailures(sc.g)).Summary()
			scores[scoreMetric] = sweep.AvgViolations
		}
		name := "worst-path"
		if metric == routing.MeanPath {
			name = "mean-path"
		}
		t.rowf("%s|%.2f|%.2f", name, scores[routing.WorstPath], scores[routing.MeanPath])
		rep.Add("viol_worstscored_"+name, scores[routing.WorstPath])
		rep.Add("viol_meanscored_"+name, scores[routing.MeanPath])
	}
	t.write(w, "Ablation: ECMP delay accounting (worst vs mean path)")
	return rep, nil
}

// ExtDesign exercises the joint routing/topology design extension: it
// reports the unavoidable-violation floor of the evaluation topologies
// (the violations no weight setting can prevent after a failure) and the
// floor after greedily adding two advisor-suggested edges.
func ExtDesign(o Options) (*Report, error) {
	rep := &Report{ID: "ext-design"}
	w := o.out()
	specs := []topogen.Spec{o.topos().rand, ispSpec()}
	// Use the SLA-equal diameter so the floor is non-trivial — the
	// advisor targets exactly the regime where routing alone cannot win.
	specs[0].DiameterMs = 25

	t := newTable("topology", "floor before", "floor after +2 edges", "edges added")
	for _, spec := range specs {
		rng := rand.New(rand.NewSource(o.Seed))
		g, err := topogen.Generate(spec, rng)
		if err != nil {
			return nil, err
		}
		before, _ := design.Floor(g, 25)
		aug, chosen, err := design.GreedyAugment(g, 25, 500, 2)
		if err != nil {
			return nil, err
		}
		after, _ := design.Floor(aug, 25)
		names := make([]string, 0, len(chosen))
		for _, c := range chosen {
			names = append(names, fmt.Sprintf("%s--%s", g.NodeName(c.U), g.NodeName(c.V)))
		}
		t.rowf("%s|%d|%d|%s", spec.Kind.String(), before, after, strings.Join(names, " "))
		rep.Add("floor_before_"+spec.Kind.String(), float64(before))
		rep.Add("floor_after_"+spec.Kind.String(), float64(after))
	}
	t.write(w, "Extension: topology augmentation against the unavoidable-violation floor")
	return rep, nil
}
