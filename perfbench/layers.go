package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obsv"
)

// regSnap is an obsv registry snapshot indexed by series: dtrd's
// /metrics.json, or the harness's own registry in-process.
type regSnap struct {
	vals    map[string]float64 // counter and gauge values; histogram count and sum under "|count", "|sum"
	buckets map[string][]obsv.BucketSnapshot
}

func indexSnapshot(s obsv.Snapshot) regSnap {
	out := regSnap{vals: map[string]float64{}, buckets: map[string][]obsv.BucketSnapshot{}}
	for _, m := range s.Metrics {
		for _, ser := range m.Series {
			k := seriesKey(m.Name, ser.Labels)
			switch {
			case ser.Value != nil:
				out.vals[k] = *ser.Value
			case ser.Count != nil:
				out.vals[k+"|count"] = float64(*ser.Count)
				out.vals[k+"|sum"] = *ser.Sum
				out.buckets[k] = ser.Buckets
			}
		}
	}
	return out
}

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	var kv []string
	for k, v := range labels {
		kv = append(kv, k+"="+v)
	}
	sort.Strings(kv)
	return name + "{" + strings.Join(kv, ",") + "}"
}

// sum adds every series of a family whose labels include want (pairs of
// key, value); suffix selects a histogram's "|count" or "|sum".
func (s regSnap) sum(name, suffix string, want ...string) float64 {
	total := 0.0
	for k, v := range s.vals {
		base, ok := strings.CutSuffix(k, suffix)
		if !ok || (suffix == "" && strings.Contains(k, "|")) {
			continue
		}
		fam, labels, _ := strings.Cut(base, "{")
		if fam != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(want); i += 2 {
			if !strings.Contains(","+strings.TrimSuffix(labels, "}")+",", ","+want[i]+"="+want[i+1]+",") {
				match = false
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// regDelta is the change of one registry between two snapshots.
type regDelta struct{ before, after regSnap }

func (d regDelta) count(name string, want ...string) float64 {
	return d.after.sum(name, "", want...) - d.before.sum(name, "", want...)
}

// histMean is the mean observation of a histogram family over the window.
func (d regDelta) histMean(name string, want ...string) float64 {
	n := d.histCount(name, want...)
	if n == 0 {
		return 0
	}
	return d.histSum(name, want...) / n
}

func (d regDelta) histCount(name string, want ...string) float64 {
	return d.after.sum(name, "|count", want...) - d.before.sum(name, "|count", want...)
}

func (d regDelta) histSum(name string, want ...string) float64 {
	return d.after.sum(name, "|sum", want...) - d.before.sum(name, "|sum", want...)
}

// histTail returns the upper bound of the bucket holding the tail
// observation of an unlabeled histogram over the window (see dist.tail),
// or 0 without observations.
func (d regDelta) histTail(name string) float64 {
	after, before := d.after.buckets[name], d.before.buckets[name]
	if len(after) == 0 {
		return 0
	}
	counts := make([]int64, len(after))
	for i, b := range after {
		counts[i] = b.Count
		if i < len(before) {
			counts[i] -= before[i].Count
		}
	}
	n := counts[len(counts)-1]
	if n == 0 {
		return 0
	}
	rank := n // the maximum, when no percentile leaves minTail beyond
	switch {
	case n >= 100*minTail:
		rank = int64(math.Ceil(0.99 * float64(n)))
	case n > minTail:
		rank = n - minTail
	}
	for i, c := range counts {
		if c >= rank {
			if after[i].LE == "+Inf" {
				return math.Inf(1)
			}
			v, _ := strconv.ParseFloat(after[i].LE, 64)
			return v
		}
	}
	return 0
}

// engineCounts sets the per-layer count metrics from a registry window:
// the engine's own counters, as the program recorded them.
func engineCounts(r *run, d regDelta, seconds float64) {
	delivered := d.histSum("ingest_delivery_events")
	collapsed := d.count("ingest_coalesced_events_total")
	r.set("ingest.deliveries", d.count("ingest_deliveries_total"))
	r.set("ingest.delivery_events_mean", d.histMean("ingest_delivery_events"))
	r.set("ingest.shed_events", d.count("ingest_events_total", "result", "shed"))
	applied := delivered - collapsed
	if delivered > 0 {
		r.set("ingest.coalesce_out_frac", applied/delivered)
		r.set("ctrl.dedup_frac", d.count("ctrl_observe_dedup_total")/math.Max(applied, 1))
		r.set("ctrl.applied_eps", applied/seconds)
	}
	updates := d.count("routing_session_updates_total", "kind", "link") + d.count("routing_session_updates_total", "kind", "link_batch") +
		d.count("routing_session_updates_total", "kind", "demand") + d.count("routing_session_updates_total", "kind", "demand_delta")
	if updates > 0 {
		r.set("routing.dests_repair_per_update", d.count("routing_session_dests_total", "class", "repair")/updates)
		r.set("routing.dests_dag_only_per_update", d.count("routing_session_dests_total", "class", "dag_only")/updates)
	}
	r.set("routing.weight_updates", d.count("routing_session_updates_total", "kind", "weight"))
	r.set("routing.inits", d.count("routing_session_inits_total"))
	r.set("routing.demand_dense", d.count("routing_session_demand_dense_total"))
	inc, dec := d.count("spf_repairs_total", "path", "increase"), d.count("spf_repairs_total", "path", "decrease")
	noop, batch := d.count("spf_repairs_total", "path", "noop"), d.count("spf_repairs_total", "path", "batch")
	r.set("spf.runs", d.count("spf_runs_total"))
	r.set("spf.repairs_increase", inc)
	r.set("spf.repairs_decrease", dec)
	r.set("spf.repairs_batch", batch)
	if all := inc + dec + noop + batch; all > 0 {
		r.set("spf.repairs_noop_frac", noop/all)
	}
	r.set("spf.changed_nodes_mean", d.histMean("spf_repair_changed_nodes"))
	r.set("fleet.checkpoints", d.count("fleet_checkpoints_total"))
	r.set("fleet.checkpoint_ms_mean", 1000*d.histMean("fleet_checkpoint_seconds"))
	r.set("scenario.evals", d.count("scenario_evals_total"))
	r.set("go.gc_cycles", d.histCount("go_gc_pause_seconds"))
	r.set("go.gc_pause_tail_ms", 1000*d.histTail("go_gc_pause_seconds"))
	r.set("go.heap_sys_mb", d.after.sum("go_heap_sys_bytes", "")/(1<<20))
}

// measureServing runs one open-loop window against dtrd and sets what
// it yields: the end-to-end metrics as slice medians, the HTTP-layer and
// generator metrics as the client saw them, the per-request samples
// dump, and — on a traced run — the engine's counts over the window.
func measureServing(cfg config, r *run, d *daemon, tele, ctl *client, reqs []*request) (*window, error) {
	var before regSnap
	if cfg.trace {
		var err error
		if before, err = ctl.snapshot(d.base); err != nil {
			return nil, err
		}
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	w := runWindow(httpTarget{d.base, tele, ctl}, reqs, d.pid())
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	if w.err != nil {
		return nil, fmt.Errorf("window: %w", w.err)
	}
	if cfg.trace {
		after, err := ctl.snapshot(d.base)
		if err != nil {
			return nil, err
		}
		engineCounts(r, regDelta{before, after}, float64(cfg.seconds))
	}
	offered, admitted, refused, events := w.counts()
	r.ops(offered, refused)
	tta := w.ttaOf("")
	tail, share := tta.tail()
	r.note("%s: %d requests (%d events) offered over %ds, %d admitted; time-to-advice n=%d p50=%.3fms p90=%.3fms p%.2f=%.3fms",
		cfg.workload, offered, events, cfg.seconds, admitted, len(tta), tta.p50(), tta.at(0.9), share*100, tail)
	w.sliceMedians(r)
	if err := w.dump(filepath.Join(cfg.work, fmt.Sprintf("samples-%s-seed%d.json", cfg.workload, cfg.seed))); err != nil {
		return nil, err
	}
	ack := w.ackRTT()
	ackTail, _ := ack.tail()
	late, _ := newDist(w.lateness).tail()
	offeredEvents := 0
	for _, rq := range w.reqs {
		offeredEvents += rq.events
	}
	r.set("bench.tta_tail_ms", tail)
	r.set("bench.tta_tail_pct", 100*share)
	r.set("dtrd.cpu_us_per_event", cpuPerEvent(cpu1-cpu0, events))
	r.set("dtrd.observe_ack_p50_ms", ack.p50())
	r.set("dtrd.observe_ack_tail_ms", ackTail)
	r.set("dtrd.advise_rtt_p50_ms", w.adviseRTT().p50())
	r.set("dtrd.non_202", float64(refused))
	r.set("dtrd.refused_frac", float64(refused)/float64(max(offered, 1)))
	r.set("bench.offered_eps", float64(offeredEvents)/float64(cfg.seconds))
	r.set("bench.gen_late_tail_ms", late)
	r.set("bench.tta_samples", float64(len(w.tta)))
	r.check("generator lateness bound", latenessOK(late))
	return w, nil
}

// daemonTotals reads dtrd's own totals before it stops: peak RSS, the
// runtime's GOMAXPROCS for the environment record, and the span and
// flight-recorder totals.
func daemonTotals(r *run, c *client, d *daemon) error {
	rss, err := procPeakRSS(d.pid())
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	var snap obsv.Snapshot
	if err := c.getJSON(d.base+"/metrics.json", &snap); err != nil {
		return err
	}
	r.environment(int(indexSnapshot(snap).sum("go_gomaxprocs", "")), "loopback TCP 127.0.0.1, 2 HTTP/1.1 keep-alive connections")
	var spans, flight struct{ Total float64 }
	if err := c.getJSON(d.base+"/debug/spans?limit=0", &spans); err != nil {
		return err
	}
	if err := c.getJSON(d.base+"/debug/flightrec", &flight); err != nil {
		return err
	}
	r.set("obsv.spans_recorded", spans.Total)
	r.set("obsv.flight_captures", flight.Total)
	return nil
}

func (c *client) snapshot(base string) (regSnap, error) {
	var snap obsv.Snapshot
	if err := c.getJSON(base+"/metrics.json", &snap); err != nil {
		return regSnap{}, fmt.Errorf("metrics snapshot: %w", err)
	}
	return indexSnapshot(snap), nil
}
