package routing

import "repro/internal/obsv"

// metrics is the package's handle bundle against the default obsv
// registry; met.Get() is nil (one atomic load) while telemetry is off.
type metrics struct {
	reg           *obsv.Registry // for live Spans() lookups (span.go)
	inits         *obsv.Counter
	updWeight     *obsv.Counter
	updLink       *obsv.Counter
	updDemand     *obsv.Counter
	updDelta      *obsv.Counter
	destsRepair   *obsv.Counter
	destsDAGOnly  *obsv.Counter
	destsParallel *obsv.Counter
	destsSerial   *obsv.Counter
	demandClones  *obsv.Counter
	demandColumns *obsv.Histogram
	batchLinks    *obsv.Histogram
}

var met = obsv.NewView(func(r *obsv.Registry) *metrics {
	const updHelp = "Incremental session updates by event kind."
	return &metrics{
		reg: r,
		inits: r.Counter("routing_session_inits_total",
			"Full from-scratch session initializations (Init)."),
		updWeight: r.Counter("routing_session_updates_total", updHelp, obsv.L("kind", "weight")),
		updLink:   r.Counter("routing_session_updates_total", updHelp, obsv.L("kind", "link")),
		updDemand: r.Counter("routing_session_updates_total", updHelp, obsv.L("kind", "demand")),
		updDelta:  r.Counter("routing_session_updates_total", updHelp, obsv.L("kind", "demand_delta")),
		destsRepair: r.Counter("routing_session_dests_total",
			"Destination recomputes by class: repair = SPF repair or fresh Dijkstra, dag_only = DAG/load refresh.",
			obsv.L("class", "repair")),
		destsDAGOnly: r.Counter("routing_session_dests_total",
			"Destination recomputes by class: repair = SPF repair or fresh Dijkstra, dag_only = DAG/load refresh.",
			obsv.L("class", "dag_only")),
		destsParallel: r.Counter("routing_session_dest_tasks_total",
			"Per-destination refresh tasks by execution mode of their region.",
			obsv.L("mode", "parallel")),
		destsSerial: r.Counter("routing_session_dest_tasks_total",
			"Per-destination refresh tasks by execution mode of their region.",
			obsv.L("mode", "serial")),
		demandClones: r.Counter("routing_session_demand_clones_total",
			"Clone-on-write copies of a shared demand matrix on the delta path."),
		demandColumns: r.Histogram("routing_session_demand_columns",
			"Changed destination columns per demand update (both classes).", obsv.SizeBuckets),
		batchLinks: r.Histogram("routing_session_batch_links",
			"Effective link flips per SetLinkStates batch.", obsv.SizeBuckets),
	}
})
