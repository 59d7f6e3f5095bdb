package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/opt"
	"repro/internal/routing"
	scen "repro/internal/scenario"
	"repro/internal/spf"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// Fig3 reproduces Fig. 3: per-link-failure SLA violations (a) and
// normalized throughput-sensitive cost (b) with and without robust
// optimization, on RandTopo.
func Fig3(o Options) (*Report, error) {
	rep := &Report{ID: "fig3"}
	w := o.out()
	sc, err := buildScenario(o.topos().rand, o.Seed, avgUtil(0.43), 25)
	if err != nil {
		return nil, err
	}
	cfg := o.config()
	pl := runPipeline(sc, cfg, cfg.TargetCriticalFrac)

	rows := make([][]float64, len(pl.robust.Results))
	for i := range rows {
		rows[i] = []float64{
			float64(i),
			float64(pl.robust.Results[i].Violations),
			float64(pl.regular.Results[i].Violations),
			pl.robust.Results[i].PhiNorm,
			pl.regular.Results[i].PhiNorm,
		}
	}
	writeSeries(w, "Fig. 3: per-failure performance, robust vs regular (RandTopo)",
		[]string{"failure_link", "viol_robust", "viol_regular", "phi_robust", "phi_regular"}, rows)
	robust, regular := pl.robust.Summary(), pl.regular.Summary()
	rep.Add("avg_viol_robust", robust.AvgViolations)
	rep.Add("avg_viol_regular", regular.AvgViolations)
	rep.Add("phi_fail_robust", robust.TotalCost.Phi)
	rep.Add("phi_fail_regular", regular.TotalCost.Phi)
	return rep, nil
}

// Fig4 reproduces Fig. 4: how robust optimization spreads post-failure
// load. For RandTopo and NearTopo under the robust solution, it reports
// per failure (sorted) the number of links whose utilization grew and the
// average growth on those links.
func Fig4(o Options) (*Report, error) {
	rep := &Report{ID: "fig4"}
	w := o.out()
	topos := o.topos()
	type curve struct {
		counts []float64
		incs   []float64
	}
	curves := make(map[string]curve)
	for _, spec := range []topogen.Spec{topos.rand, topos.near} {
		sc, err := buildScenario(spec, o.Seed, avgUtil(0.43), 25)
		if err != nil {
			return nil, err
		}
		cfg := o.config()
		pl := runPipeline(sc, cfg, cfg.TargetCriticalFrac)

		// Per-link utilization under normal conditions and per failure.
		sc.ev.Detail = true
		var normal routing.Result
		sc.ev.EvaluateNormal(pl.p2.BestW, &normal)
		failRes := scen.Runner{}.Run(sc.ev, pl.p2.BestW, scen.SingleLinkFailures(sc.g)).Results
		sc.ev.Detail = false

		m := sc.g.NumLinks()
		normUtil := make([]float64, m)
		for li := 0; li < m; li++ {
			normUtil[li] = normal.LoadTotal[li] / sc.g.Link(li).Capacity
		}
		var counts, incs []float64
		for fi := range failRes {
			cnt, sum := 0, 0.0
			for li := 0; li < m; li++ {
				if li == fi { // scenario fi fails link fi
					continue
				}
				u := failRes[fi].LoadTotal[li] / sc.g.Link(li).Capacity
				if u > normUtil[li]+1e-9 {
					cnt++
					sum += u - normUtil[li]
				}
			}
			counts = append(counts, float64(cnt))
			if cnt > 0 {
				incs = append(incs, sum/float64(cnt))
			} else {
				incs = append(incs, 0)
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(counts)))
		sort.Sort(sort.Reverse(sort.Float64Slice(incs)))
		curves[spec.Kind.String()] = curve{counts: counts, incs: incs}
		cm, _ := meanStd(counts)
		im, _ := meanStd(incs)
		rep.Add("mean_links_increased_"+spec.Kind.String(), cm)
		rep.Add("mean_util_increase_"+spec.Kind.String(), im)
	}
	randC, nearC := curves["RandTopo"], curves["NearTopo"]
	n := min(len(randC.counts), len(nearC.counts))
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = []float64{float64(i), randC.counts[i], nearC.counts[i], randC.incs[i], nearC.incs[i]}
	}
	writeSeries(w, "Fig. 4: post-failure load spread under robust optimization (sorted)",
		[]string{"sorted_failure", "links_increased_rand", "links_increased_near", "avg_increase_rand", "avg_increase_near"}, rows)
	return rep, nil
}

// Fig5a reproduces Fig. 5(a): sorted per-failure SLA violations with and
// without robust optimization at medium (max util 0.74) and high (0.90)
// load. The high-load robust run uses |Ec|/|E| = 0.25 per the paper.
func Fig5a(o Options) (*Report, error) {
	rep := &Report{ID: "fig5a"}
	w := o.out()
	spec := o.topos().rand
	type series struct{ robust, regular []float64 }
	out := map[string]series{}
	for _, cfgLoad := range []struct {
		name string
		util float64
		frac float64
	}{{"medium", 0.74, 0.15}, {"high", 0.90, 0.25}} {
		sc, err := buildScenario(spec, o.Seed, maxUtil(cfgLoad.util), 25)
		if err != nil {
			return nil, err
		}
		cfg := o.config()
		pl := runPipeline(sc, cfg, cfgLoad.frac)
		rob := violationSeries(pl.robust.Results)
		reg := violationSeries(pl.regular.Results)
		sort.Sort(sort.Reverse(sort.Float64Slice(rob)))
		sort.Sort(sort.Reverse(sort.Float64Slice(reg)))
		out[cfgLoad.name] = series{robust: rob, regular: reg}
		rep.Add("avg_viol_robust_"+cfgLoad.name, pl.robust.Summary().AvgViolations)
		rep.Add("avg_viol_regular_"+cfgLoad.name, pl.regular.Summary().AvgViolations)
	}
	n := len(out["medium"].robust)
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = []float64{float64(i),
			out["medium"].robust[i], out["medium"].regular[i],
			out["high"].robust[i], out["high"].regular[i]}
	}
	writeSeries(w, "Fig. 5(a): sorted per-failure SLA violations, medium vs high load",
		[]string{"sorted_failure", "robust_0.74", "regular_0.74", "robust_0.90", "regular_0.90"}, rows)
	return rep, nil
}

func violationSeries(results []scen.Result) []float64 {
	out := make([]float64, len(results))
	for i := range results {
		out[i] = float64(results[i].Violations)
	}
	return out
}

// Fig5bc reproduces Fig. 5(b) and (c): the distribution of end-to-end
// delays across SD pairs in the absence of failures, under regular
// optimization, as the SLA bound is relaxed — for RandTopo (b) and
// NearTopo (c). The paper's point: delays grow with the bound in
// RandTopo (regular optimization spends the slack) but much less in
// NearTopo.
func Fig5bc(o Options) (*Report, error) {
	rep := &Report{ID: "fig5bc"}
	w := o.out()
	bounds := []float64{25, 45, 100}
	topos := o.topos()
	for _, spec := range []topogen.Spec{topos.rand, topos.near} {
		spec.DiameterMs = 25 // fixed physical delays as the bound varies
		var cols []string
		var series [][]float64
		for _, theta := range bounds {
			sc, err := buildScenario(spec, o.Seed, avgUtil(0.43), theta)
			if err != nil {
				return nil, err
			}
			cfg := o.config()
			op := opt.New(sc.ev, cfg)
			p1 := op.RunPhase1()
			sc.ev.Detail = true
			var res routing.Result
			sc.ev.EvaluateNormal(p1.BestW, &res)
			sc.ev.Detail = false
			delays := pairDelays(&res, sc)
			sort.Float64s(delays)
			cols = append(cols, fmt.Sprintf("theta_%.0fms", theta))
			series = append(series, delays)
			m, _ := meanStd(delays)
			rep.Add(fmt.Sprintf("mean_delay_%s_theta%.0f", spec.Kind.String(), theta), m)
		}
		rows := make([][]float64, len(series[0]))
		for i := range rows {
			row := []float64{float64(i)}
			for _, s := range series {
				row = append(row, s[i])
			}
			rows[i] = row
		}
		writeSeries(w, fmt.Sprintf("Fig. 5(b/c): sorted pair delays under regular optimization (%s)", spec.Kind.String()),
			append([]string{"sorted_pair"}, cols...), rows)
	}
	return rep, nil
}

func pairDelays(res *routing.Result, sc *scenario) []float64 {
	n := sc.g.NumNodes()
	var out []float64
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t || sc.demD.At(s, t) == 0 {
				continue
			}
			d := res.PairDelay[s*n+t]
			if d < spf.InfDelay {
				out = append(out, d)
			}
		}
	}
	return out
}

// Fig5d reproduces Fig. 5(d): for each link failure under regular
// optimization, the maximum utilization among links carrying
// delay-sensitive traffic, for a tight (30 ms) and loose (100 ms) SLA
// bound. Looser bounds push delay traffic onto longer paths and load up
// more links.
func Fig5d(o Options) (*Report, error) {
	rep := &Report{ID: "fig5d"}
	w := o.out()
	bounds := []float64{30, 100}
	spec := o.topos().rand
	spec.DiameterMs = 25 // fixed physical delays as the bound varies
	var series [][]float64
	for _, theta := range bounds {
		sc, err := buildScenario(spec, o.Seed, avgUtil(0.43), theta)
		if err != nil {
			return nil, err
		}
		cfg := o.config()
		op := opt.New(sc.ev, cfg)
		p1 := op.RunPhase1()
		sc.ev.Detail = true
		failRes := scen.Runner{}.Run(sc.ev, p1.BestW, scen.SingleLinkFailures(sc.g)).Results
		sc.ev.Detail = false
		vals := make([]float64, len(failRes))
		for i := range failRes {
			vals[i] = maxUtilOnDelayLinks(&failRes[i].Result, sc)
		}
		series = append(series, vals)
		m, _ := meanStd(vals)
		rep.Add(fmt.Sprintf("mean_maxutil_theta%.0f", theta), m)
	}
	rows := make([][]float64, len(series[0]))
	for i := range rows {
		rows[i] = []float64{float64(i), series[0][i], series[1][i]}
	}
	writeSeries(w, "Fig. 5(d): max utilization of links carrying delay traffic per failure (regular optimization)",
		[]string{"failure_link", "theta_30ms", "theta_100ms"}, rows)
	return rep, nil
}

// maxUtilOnDelayLinks returns the highest utilization among links that
// carry delay-class traffic (total load minus throughput load positive).
func maxUtilOnDelayLinks(res *routing.Result, sc *scenario) float64 {
	var best float64
	for li := 0; li < sc.g.NumLinks(); li++ {
		delayLoad := res.LoadTotal[li] - res.LoadThroughput[li]
		if delayLoad > 1e-9 {
			if u := res.LoadTotal[li] / sc.g.Link(li).Capacity; u > best {
				best = u
			}
		}
	}
	return best
}

// Fig6ab reproduces Fig. 6(a),(b): robustness to Gaussian traffic
// fluctuation (ε = 0.2). Base matrices are scaled so the network runs
// hot (max util 0.9); the top-10% worst failures of the robust solution
// under the base matrix are re-evaluated under perturbed matrices for
// both the robust and the regular solutions.
func Fig6ab(o Options) (*Report, error) {
	return fig6Impl(o, "fig6ab", maxUtil(0.9), func(sc *scenario, rng *rand.Rand) (*traffic.Matrix, *traffic.Matrix) {
		return sc.demD.Fluctuate(0.2, rng), sc.demT.Fluctuate(0.2, rng)
	}, "Fig. 6(a,b): random traffic fluctuation (eps=0.2)")
}

// Fig6cd reproduces Fig. 6(c),(d): robustness to download hot-spot
// surges (10% servers, 50% clients, factors U[2,6]) with base matrices at
// max util 0.74.
func Fig6cd(o Options) (*Report, error) {
	h := traffic.DefaultHotspot(true)
	return fig6Impl(o, "fig6cd", maxUtil(0.74), func(sc *scenario, rng *rand.Rand) (*traffic.Matrix, *traffic.Matrix) {
		return h.Apply(sc.demD, sc.demT, rng)
	}, "Fig. 6(c,d): download hot-spot surges")
}

func fig6Impl(o Options, id string, load utilTarget, perturb func(*scenario, *rand.Rand) (*traffic.Matrix, *traffic.Matrix), title string) (*Report, error) {
	rep := &Report{ID: id}
	w := o.out()
	sc, err := buildScenario(o.topos().rand, o.Seed, load, 25)
	if err != nil {
		return nil, err
	}
	cfg := o.config()
	pl := runPipeline(sc, cfg, cfg.TargetCriticalFrac)

	m := sc.g.NumLinks()
	k := max(1, m/10)
	instances := 100
	if o.Scale == Quick {
		instances = 15
	}

	// Each curve is sorted by its own severity (the paper's "sorted
	// top-10% failure" axes): per instance we sweep every failure, sort
	// descending, and average rank-wise over instances. Ranking all
	// curves by one solution's worst scenarios would bias the comparison.
	rng := rand.New(rand.NewSource(o.Seed + 31337))
	set := scen.SingleLinkFailures(sc.g)
	sumR := make([]float64, k)
	sumSqR := make([]float64, k)
	sumNR := make([]float64, k)
	phiR := make([]float64, k)
	phiNR := make([]float64, k)
	for inst := 0; inst < instances; inst++ {
		pd, pt := perturb(sc, rng)
		pev := routing.NewEvaluator(sc.g, pd, pt, sc.ev.Params(), routing.WorstPath)
		resR := scen.Runner{}.Run(pev, pl.p2.BestW, set).Results
		resNR := scen.Runner{}.Run(pev, pl.p1.BestW, set).Results
		violProfR, phiProfR := rankProfiles(resR, k)
		violProfNR, phiProfNR := rankProfiles(resNR, k)
		for i := 0; i < k; i++ {
			sumR[i] += violProfR[i]
			sumSqR[i] += violProfR[i] * violProfR[i]
			sumNR[i] += violProfNR[i]
			phiR[i] += phiProfR[i]
			phiNR[i] += phiProfNR[i]
		}
	}
	baseViol, basePhi := rankProfiles(pl.robust.Results, k)

	rows := make([][]float64, k)
	var totR, totNR, totBase float64
	for i := 0; i < k; i++ {
		meanR := sumR[i] / float64(instances)
		stdR := sumSqR[i]/float64(instances) - meanR*meanR
		if stdR < 0 {
			stdR = 0
		}
		meanNR := sumNR[i] / float64(instances)
		rows[i] = []float64{float64(i), meanR, math.Sqrt(stdR), meanNR,
			baseViol[i], phiR[i] / float64(instances), phiNR[i] / float64(instances), basePhi[i]}
		totR += meanR
		totNR += meanNR
		totBase += baseViol[i]
	}
	writeSeries(w, title,
		[]string{"rank", "viol_robust_perturbed", "std", "viol_regular_perturbed", "viol_robust_base", "phi_robust_perturbed", "phi_regular_perturbed", "phi_robust_base"}, rows)
	rep.Add("avg_top10_viol_robust_perturbed", totR/float64(k))
	rep.Add("avg_top10_viol_regular_perturbed", totNR/float64(k))
	rep.Add("avg_top10_viol_robust_base", totBase/float64(k))
	return rep, nil
}

// rankProfiles returns the top-k violation counts and normalized Φ of a
// sweep, each sorted descending independently.
func rankProfiles(results []scen.Result, k int) (viol, phi []float64) {
	viol = make([]float64, 0, len(results))
	phi = make([]float64, 0, len(results))
	for i := range results {
		viol = append(viol, float64(results[i].Violations))
		phi = append(phi, results[i].PhiNorm)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(viol)))
	sort.Sort(sort.Reverse(sort.Float64Slice(phi)))
	if k > len(viol) {
		k = len(viol)
	}
	return viol[:k], phi[:k]
}

// Fig7ab reproduces Fig. 7(a),(b): performance under all single node
// failures of three routings — regular, robust against link failures,
// and robust against node failures (the paper's exhaustive variant).
func Fig7ab(o Options) (*Report, error) {
	rep := &Report{ID: "fig7ab"}
	w := o.out()
	sol, sc, err := fig7Solutions(o)
	if err != nil {
		return nil, err
	}
	nodes := scen.NodeFailures(sc.g)
	regular := scen.Runner{}.Run(sc.ev, sol.regular, nodes)
	robustLink := scen.Runner{}.Run(sc.ev, sol.robustLink, nodes)
	robustNode := scen.Runner{}.Run(sc.ev, sol.robustNode, nodes)

	n := len(regular.Results)
	rows := make([][]float64, n)
	order := sortedIdxByViolations(regular.Results)
	for i, si := range order {
		rows[i] = []float64{float64(i),
			float64(robustNode.Results[si].Violations),
			float64(robustLink.Results[si].Violations),
			float64(regular.Results[si].Violations),
			robustNode.Results[si].PhiNorm,
			robustLink.Results[si].PhiNorm,
			regular.Results[si].PhiNorm,
		}
	}
	writeSeries(w, "Fig. 7(a,b): performance under all single node failures",
		[]string{"sorted_node", "viol_robust_node", "viol_robust_link", "viol_regular", "phi_robust_node", "phi_robust_link", "phi_regular"}, rows)
	rep.Add("avg_viol_robust_node", robustNode.Summary().AvgViolations)
	rep.Add("avg_viol_robust_link", robustLink.Summary().AvgViolations)
	rep.Add("avg_viol_regular", regular.Summary().AvgViolations)
	return rep, nil
}

// Fig7cd reproduces Fig. 7(c),(d): the top-10% worst link failures
// compared between the node-failure-optimized and the
// link-failure-optimized routings, showing that node-robustness is no
// substitute for link-robustness.
func Fig7cd(o Options) (*Report, error) {
	rep := &Report{ID: "fig7cd"}
	w := o.out()
	sol, sc, err := fig7Solutions(o)
	if err != nil {
		return nil, err
	}
	all := scen.SingleLinkFailures(sc.g)
	linkSweep := scen.Runner{}.Run(sc.ev, sol.robustLink, all)
	nodeSweep := scen.Runner{}.Run(sc.ev, sol.robustNode, all)

	// Each routing's own worst-10% link failures, sorted independently
	// (ranking both by one routing's worst scenarios would bias the
	// comparison).
	k := max(1, sc.g.NumLinks()/10)
	nodeViol, nodePhi := rankProfiles(nodeSweep.Results, k)
	linkViol, linkPhi := rankProfiles(linkSweep.Results, k)
	rows := make([][]float64, k)
	for i := 0; i < k; i++ {
		rows[i] = []float64{float64(i), nodeViol[i], linkViol[i], nodePhi[i], linkPhi[i]}
	}
	writeSeries(w, "Fig. 7(c,d): worst link failures, node-optimized vs link-optimized routing",
		[]string{"rank", "viol_robust_node", "viol_robust_link", "phi_robust_node", "phi_robust_link"}, rows)
	rep.Add("avg_viol_robust_node", nodeSweep.Summary().AvgViolations)
	rep.Add("avg_viol_robust_link", linkSweep.Summary().AvgViolations)
	rep.Add("top10_viol_robust_node", mean(nodeViol))
	rep.Add("top10_viol_robust_link", mean(linkViol))
	return rep, nil
}

func mean(v []float64) float64 {
	m, _ := meanStd(v)
	return m
}

type fig7Set struct {
	regular, robustLink, robustNode *routing.WeightSetting
}

func fig7Solutions(o Options) (*fig7Set, *scenario, error) {
	sc, err := buildScenario(o.topos().rand, o.Seed, maxUtil(0.8), 25)
	if err != nil {
		return nil, nil, err
	}
	cfg := o.config()
	op := opt.New(sc.ev, cfg)
	p1 := op.RunPhase1()
	op.TopUpSamples(p1)
	critical := op.SelectCritical(p1, cfg.TargetCriticalFrac)
	p2link := op.RunPhase2(p1, opt.FailureSet{Links: critical})
	p2node := op.RunPhase2(p1, opt.AllNodeFailures(sc.ev))
	return &fig7Set{regular: p1.BestW, robustLink: p2link.BestW, robustNode: p2node.BestW}, sc, nil
}

func sortedIdxByViolations(results []scen.Result) []int {
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return results[order[a]].Violations > results[order[b]].Violations
	})
	return order
}
