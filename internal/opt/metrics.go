package opt

import (
	"time"

	"repro/internal/obsv"
)

// metrics is the package's handle bundle against the default obsv
// registry; met.Get() is nil (one atomic load) while telemetry is off.
type metrics struct {
	reg           *obsv.Registry // for live Spans() lookups
	p1Iterations  *obsv.Gauge
	p1EvalsPerSec *obsv.Gauge
	p1Evals       *obsv.Counter
	p2Iterations  *obsv.Gauge
	p2EvalsPerSec *obsv.Gauge
	p2Evals       *obsv.Counter
	p2Pruned      *obsv.Counter
}

var met = obsv.NewView(func(r *obsv.Registry) *metrics {
	const iterHelp = "Live outer-iteration count of the running search phase."
	const rateHelp = "Live evaluation throughput of the running search phase."
	const evalHelp = "Weight-setting evaluations by search phase."
	return &metrics{
		reg:           r,
		p1Iterations:  r.Gauge("opt_phase_iterations", iterHelp, obsv.L("phase", "1")),
		p1EvalsPerSec: r.Gauge("opt_phase_evals_per_sec", rateHelp, obsv.L("phase", "1")),
		p1Evals:       r.Counter("opt_phase_evaluations_total", evalHelp, obsv.L("phase", "1")),
		p2Iterations:  r.Gauge("opt_phase_iterations", iterHelp, obsv.L("phase", "2")),
		p2EvalsPerSec: r.Gauge("opt_phase_evals_per_sec", rateHelp, obsv.L("phase", "2")),
		p2Evals:       r.Counter("opt_phase_evaluations_total", evalHelp, obsv.L("phase", "2")),
		p2Pruned: r.Counter("opt_phase2_pruned_total",
			"Scenario updates the robust search skipped because a partial sum proved the move lost."),
	}
})

// phaseProgress publishes a phase's live progress once per outer
// iteration: current iteration, the evaluation (and, in Phase 2, pruned
// scenario update) counter deltas since the last publish, and the
// running evals/sec. Zero-cost (one atomic load) while telemetry is off.
type phaseProgress struct {
	phase          int
	start          time.Time
	reported       int
	prunedReported int
}

func (p *phaseProgress) publish(iter, evals, pruned int) {
	m := met.Get()
	if m == nil {
		return
	}
	it, rate, ev := m.p1Iterations, m.p1EvalsPerSec, m.p1Evals
	if p.phase == 2 {
		it, rate, ev = m.p2Iterations, m.p2EvalsPerSec, m.p2Evals
		m.p2Pruned.Add(int64(pruned - p.prunedReported))
		p.prunedReported = pruned
	}
	it.Set(float64(iter))
	ev.Add(int64(evals - p.reported))
	p.reported = evals
	if el := time.Since(p.start).Seconds(); el > 0 {
		rate.Set(float64(evals) / el)
	}
}
