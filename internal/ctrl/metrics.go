package ctrl

import "repro/internal/obsv"

// Telemetry event classes. Each has one fan-out span name, one latency
// series and one dedup series.
const (
	classLink = iota
	classDemand
	classDelta
	numClasses
)

var (
	classNames       = [numClasses]string{"link", "demand", "demand_delta"}
	observeSpanNames = [numClasses]string{"observe.link", "observe.demand", "observe.demand_delta"}
)

// metrics is the package's handle bundle against the default obsv
// registry; met.Get() is nil (one atomic load) while telemetry is off.
type metrics struct {
	reg       *obsv.Registry // for live Spans()/Flight() lookups
	observe   [numClasses]*obsv.Histogram
	dedup     [numClasses]*obsv.Counter
	advises   *obsv.Counter
	plans     *obsv.Counter
	planSteps *obsv.Histogram
	trace     *obsv.Trace
}

var met = obsv.NewView(func(r *obsv.Registry) *metrics {
	const obsHelp = "Selector.ObserveBatch fan-out latency by event class (deduplicated events excluded)."
	const dedupHelp = "Events deduplicated before the session fan-out, by event class."
	m := &metrics{
		reg: r,
		advises: r.Counter("ctrl_advise_total",
			"Advise decisions served from the cached candidate scores."),
		plans: r.Counter("ctrl_plans_total",
			"Migration plans computed."),
		planSteps: r.Histogram("ctrl_plan_steps",
			"Link rewrites per computed migration plan.", obsv.SizeBuckets),
		trace: r.Trace(),
	}
	for c, name := range classNames {
		m.observe[c] = r.Histogram("ctrl_observe_seconds", obsHelp, obsv.LatencyBuckets, obsv.L("class", name))
		m.dedup[c] = r.Counter("ctrl_observe_dedup_total", dedupHelp, obsv.L("class", name))
	}
	return m
})
