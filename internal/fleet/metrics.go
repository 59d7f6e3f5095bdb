package fleet

import "repro/internal/obsv"

// metrics is the package's handle bundle against the default obsv
// registry; met.Get() is nil (one atomic load) while telemetry is off.
// Per-network handles are looked up per use — registration is
// idempotent and the fleet registers every family eagerly (Register)
// before building its shards, so the scrape surface is complete before
// any traffic.
type metrics struct {
	reg     *obsv.Registry
	shards  *obsv.Gauge
	unknown *obsv.Counter
	ckptSec *obsv.Histogram
}

const (
	helpEvents      = "Telemetry events admitted per shard (logged and queued for delivery)."
	helpUp          = "Shard availability: 1 while serving, 0 while restarting, failed or closed."
	helpRestarts    = "Crash restarts per shard (delivery panics and operator kills)."
	helpCheckpoints = "Checkpoints committed per shard (snapshot replaced, event log reset)."
	helpCkptErrors  = "Periodic checkpoints that failed (shard paused with a backlog, crash mid-checkpoint, I/O error)."
	helpReplayed    = "Events replayed from the event log during shard recovery."
	helpColdStarts  = "Recoveries that fell back to a cold start because the checkpoint was corrupt."
	helpLogErrors   = "Event-log append failures (shard keeps serving; durability is degraded)."
)

var met = obsv.NewView(func(r *obsv.Registry) *metrics {
	return &metrics{
		reg: r,
		shards: r.Gauge("fleet_shards",
			"Controller shards owned by the fleet."),
		unknown: r.Counter("fleet_unknown_network_total",
			"Telemetry batches rejected because they named no known network."),
		ckptSec: r.Histogram("fleet_checkpoint_seconds",
			"Checkpoint latency: quiesce, snapshot encode, atomic replace, log reset.", obsv.LatencyBuckets),
	}
})

func (m *metrics) events(network string) *obsv.Counter {
	return m.reg.Counter("fleet_events_total", helpEvents, obsv.L("network", network))
}

func (m *metrics) up(network string) *obsv.Gauge {
	return m.reg.Gauge("fleet_shard_up", helpUp, obsv.L("network", network))
}

func (m *metrics) restarts(network string) *obsv.Counter {
	return m.reg.Counter("fleet_restarts_total", helpRestarts, obsv.L("network", network))
}

func (m *metrics) checkpoints(network string) *obsv.Counter {
	return m.reg.Counter("fleet_checkpoints_total", helpCheckpoints, obsv.L("network", network))
}

func (m *metrics) ckptErrors(network string) *obsv.Counter {
	return m.reg.Counter("fleet_checkpoint_errors_total", helpCkptErrors, obsv.L("network", network))
}

func (m *metrics) replayed(network string) *obsv.Counter {
	return m.reg.Counter("fleet_replayed_events_total", helpReplayed, obsv.L("network", network))
}

func (m *metrics) coldStarts(network string) *obsv.Counter {
	return m.reg.Counter("fleet_cold_starts_total", helpColdStarts, obsv.L("network", network))
}

func (m *metrics) logErrors(network string) *obsv.Counter {
	return m.reg.Counter("fleet_log_errors_total", helpLogErrors, obsv.L("network", network))
}

// Register eagerly creates every per-network family for the given
// networks, so the metric surface is complete (and the README drift
// test can see it) before any event, crash or checkpoint happens.
func Register(networks []string) {
	m := met.Get()
	if m == nil {
		return
	}
	m.shards.Set(float64(len(networks)))
	m.unknown.Add(0)
	for _, n := range networks {
		m.events(n).Add(0)
		m.up(n).Set(0)
		m.restarts(n).Add(0)
		m.checkpoints(n).Add(0)
		m.ckptErrors(n).Add(0)
		m.replayed(n).Add(0)
		m.coldStarts(n).Add(0)
		m.logErrors(n).Add(0)
	}
}
