package spf

import "repro/internal/obsv"

// metrics is the package's handle bundle against the default obsv
// registry; met.Get() is nil (one atomic load) while telemetry is off.
type metrics struct {
	runs         *obsv.Counter
	repairBatch  *obsv.Counter
	changedNodes *obsv.Histogram
	batchLinks   *obsv.Histogram
}

var met = obsv.NewView(func(r *obsv.Registry) *metrics {
	return &metrics{
		runs: r.Counter("spf_runs_total",
			"Fresh full Dijkstra computations."),
		repairBatch: r.Counter("spf_repairs_total",
			"Incremental SPF repairs.", obsv.L("path", "batch")),
		changedNodes: r.Histogram("spf_repair_changed_nodes",
			"Nodes whose distance changed per effective repair phase.", obsv.SizeBuckets),
		batchLinks: r.Histogram("spf_repair_batch_links",
			"Effective link changes per repair.", obsv.SizeBuckets),
	}
})
