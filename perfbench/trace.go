package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/ctrl"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/obsv"
	"repro/internal/routing"
	"repro/internal/scenario"
)

// foldTolerance bounds how far the stage self times of the typical
// request (the middle tenth by time-to-advice) may sum from the median
// time-to-advice: their mean duration sits near, not at, the median.
const foldTolerance = 0.10

// span is one traced call the harness made into a layer: spans of one
// request share a trace, and a span's parent is the span that caused it.
type span struct {
	Trace  int64   `json:"trace"`
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct{ spans []span }

// add records a span over [start, end] (offsets) and returns its ID.
func (t *tracer) add(trace, parent int64, name string, start, end time.Duration) int64 {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: ms(start), End: ms(end)})
	return id
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time in ms: its duration minus the
// part of it its children cover.
func selfTimes(spans []span) []float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// fold folds a span dump into per-name self-time distributions, in ms.
func fold(spans []span) map[string]dist {
	raw := map[string][]float64{}
	for i, st := range selfTimes(spans) {
		raw[spans[i].Name] = append(raw[spans[i].Name], st)
	}
	out := map[string]dist{}
	for name, xs := range raw {
		out[name] = newDist(xs)
	}
	return out
}

// medianBand decomposes the typical request: over the requests whose
// root duration ranks in the middle tenth, the mean self time of each
// span name, and the median root duration they are compared with.
func medianBand(spans []span, root string) (stages map[string]float64, p50 float64) {
	selfs := selfTimes(spans)
	type req struct {
		trace int64
		dur   float64
	}
	var roots []req
	for _, s := range spans {
		if s.Name == root && s.Parent == 0 {
			roots = append(roots, req{s.Trace, s.End - s.Start})
		}
	}
	if len(roots) == 0 {
		return nil, 0
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].dur < roots[j].dur })
	durs := make([]float64, len(roots))
	for i, r := range roots {
		durs[i] = r.dur
	}
	p50 = dist(durs).p50()
	lo, hi := len(roots)*45/100, max(len(roots)*55/100, len(roots)*45/100+1)
	band := map[int64]bool{}
	for _, r := range roots[lo:min(hi, len(roots))] {
		band[r.trace] = true
	}
	stages = map[string]float64{}
	for i, s := range spans {
		if band[s.Trace] {
			stages[s.Name] += selfs[i] / float64(len(band))
		}
	}
	return stages, p50
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := math.Max(k.Start, parent.Start), math.Min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, math.Inf(-1)
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// foldGap is the share by which the stage self times of the typical
// request miss the median time-to-advice.
func foldGap(stages map[string]float64, p50 float64) float64 {
	if p50 == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range stages {
		sum += v
	}
	return math.Abs(p50-sum) / p50
}

// installRegistry configures a registry as dtrd does — spans, the
// decision-trace ring, the flight recorder — and makes it the default.
func installRegistry() *obsv.Registry {
	reg := obsv.NewRegistry()
	reg.EnableSpans(obsv.DefaultSpanCapacity)
	reg.Trace().Resize(512)
	reg.Flight().SetLatencyThreshold(obsv.DefaultFlightLatency)
	obsv.SetDefault(reg)
	return reg
}

// fleetTarget is the facade fleet in-process: the traced run's window.
type fleetTarget struct{ f *repro.Fleet }

func (t fleetTarget) observe(r *request) (int, error) {
	_, err := t.f.Enqueue(r.evs)
	switch {
	case err == nil:
		return 202, nil
	case errors.Is(err, repro.ErrIntakeFull):
		return 429, nil
	case errors.Is(err, repro.ErrShardDown), errors.Is(err, repro.ErrIntakeClosed):
		return 503, nil
	}
	return 400, nil
}

func (t fleetTarget) quiesce(network string) error { return t.f.Quiesce(network) }

func (t fleetTarget) advise(network string) error {
	_, err := t.f.Advise(network)
	return err
}

// tapLog records, at each shard's intake tap, when each request's
// events were delivered and which requests' events each delivered
// batch held, before coalescing.
type tapLog struct {
	mu      sync.Mutex
	at      map[int]time.Time
	batches map[string][][]int // per network, per delivered batch: the request of each event
}

func (l *tapLog) tap(network string) func(labels []string) {
	return func(labels []string) {
		now := time.Now()
		batch := make([]int, len(labels))
		for i, lb := range labels {
			batch[i], _ = strconv.Atoi(strings.TrimPrefix(lb, "r"))
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		for _, k := range batch {
			if _, ok := l.at[k]; !ok {
				l.at[k] = now
			}
		}
		l.batches[network] = append(l.batches[network], batch)
	}
}

// servingMember is one network of a traced serving run.
type servingMember struct {
	name string
	nw   *repro.Network
	lib  *repro.Library
	rep  *replica
}

// tracedServing is the traced in-process repeat of a serving window.
type tracedServing struct {
	fleet *repro.Fleet
	win   *window
	taps  *tapLog
	spans tracer
	ckpt  string
}

// traceServing repeats the window in-process through the facade fleet
// — the same networks, libraries, options and schedule dtrd got — with
// stamps at the intake tap, then replays every delivered batch one
// layer call at a time and folds the result.
func traceServing(cfg config, r *run, members []servingMember, reqs []*request, checkpoint time.Duration, untracedP50 float64) (_ *tracedServing, err error) {
	t := &tracedServing{taps: &tapLog{at: map[int]time.Time{}, batches: map[string][][]int{}}}
	fm := make([]repro.FleetMember, len(members))
	for i, m := range members {
		fm[i] = repro.FleetMember{Name: m.name, Net: m.nw, Library: m.lib, IntakeTap: t.taps.tap(m.name)}
	}
	opts := repro.FleetOptions{}
	if checkpoint > 0 {
		dir, err := os.MkdirTemp(cfg.work, "traced-checkpoints-")
		if err != nil {
			return nil, err
		}
		t.ckpt = dir
		opts.CheckpointDir, opts.CheckpointInterval = dir, checkpoint
	}
	f, err := repro.NewFleet(fm, opts)
	if err != nil {
		return nil, err
	}
	t.fleet = f
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	t.win = runWindow(fleetTarget{f}, fresh(reqs), 0)
	if t.win.err != nil {
		return nil, fmt.Errorf("traced window: %w", t.win.err)
	}
	_, _, refused, events := t.win.counts()
	r.check("traced window admits every request", nonZero(refused, "requests refused"))

	// Replay every delivered batch, one layer call at a time.
	rep, err := replayDeliveries(members, reqs, t.taps)
	if err != nil {
		return nil, err
	}
	rep.apply(r)
	wal, err := replayWAL(cfg, members, t.win.reqs)
	if err != nil {
		return nil, err
	}
	r.set("fleet.wal_append_us_per_event", wal.usPerEvent)
	r.set("fleet.wal_bytes_per_event", wal.bytesPerEvent)

	// One span tree per request, laid out on the window's clock.
	start := t.win.start
	var enqueue time.Duration
	for k, rq := range t.win.reqs {
		c := t.win.cover[k]
		if c < 0 {
			continue
		}
		enqueue += rq.acked - rq.sent
		cy := t.win.cycles[c]
		tap := max(t.taps.at[k].Sub(start), rq.acked)
		trace := int64(k + 1)
		root := t.spans.add(trace, 0, "request", rq.due, cy.done)
		t.spans.add(trace, root, "harness.late", rq.due, rq.sent)
		t.spans.add(trace, root, "fleet.enqueue", rq.sent, rq.acked)
		t.spans.add(trace, root, "ingest.queue_wait", rq.acked, tap)
		deliver := t.spans.add(trace, root, "fleet.deliver", tap, max(cy.quiesced, tap))
		co, sel := rep.perRequest[k].coalesce, rep.perRequest[k].observe
		t.spans.add(trace, deliver, "ingest.coalesce", tap, tap+co)
		t.spans.add(trace, deliver, "ctrl.observe_batch", tap+co, tap+co+sel)
		t.spans.add(trace, root, "fleet.advise", cy.quiesced, cy.done)
	}
	selfs := fold(t.spans.spans)
	band, p50 := medianBand(t.spans.spans, "request")
	gap := foldGap(band, p50)
	r.note("traced fold: self time per stage in ms (p50, tail) and the typical request's share:")
	names := make([]string, 0, len(selfs))
	for n := range selfs {
		names = append(names, n)
	}
	sort.Strings(names)
	sum := 0.0
	for _, n := range names {
		d := selfs[n]
		tail, share := d.tail()
		sum += band[n]
		r.note("  %-20s n=%-6d p50=%9.4f p%.2f=%9.4f  typical=%9.4f", n, len(d), d.p50(), share*100, tail, band[n])
	}
	r.note("  typical request's stages add up to %.4fms; traced time-to-advice p50 %.4fms (gap %.1f%%, tolerance %.0f%%)",
		sum, p50, 100*gap, 100*foldTolerance)
	r.check("stage self times add up", withinTolerance(gap))
	tta := t.win.ttaOf("")
	qw := selfs["ingest.queue_wait"]
	qwTail, _ := qw.tail()
	r.set("ingest.queue_wait_p50_ms", qw.p50())
	r.set("ingest.queue_wait_tail_ms", qwTail)
	r.set("fleet.enqueue_us_per_event", float64(enqueue)/float64(time.Microsecond)/float64(max(events, 1)))
	r.set("bench.traced_tta_p50_ms", tta.p50())
	r.set("bench.fold_gap_frac", gap)
	if untracedP50 > 0 {
		r.set("bench.trace_overhead_frac", (tta.p50()-untracedP50)/untracedP50)
	}
	path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := t.spans.write(path); err != nil {
		return nil, err
	}
	r.note("span dump: %s (%d spans)", path, len(t.spans.spans))
	return t, nil
}

// close drains the traced fleet and removes its checkpoints.
func (t *tracedServing) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := t.fleet.Close(ctx)
	if t.ckpt != "" {
		os.RemoveAll(t.ckpt)
	}
	return err
}

func withinTolerance(gap float64) error {
	if gap > foldTolerance {
		return fmt.Errorf("stage medians miss the whole by %.1f%% (tolerance %.0f%%)", 100*gap, 100*foldTolerance)
	}
	return nil
}

func nonZero(n int, what string) error {
	if n != 0 {
		return fmt.Errorf("%d %s", n, what)
	}
	return nil
}

// replay is what replaying the delivered batches measured.
type replay struct {
	perRequest                 map[int]stageTimes
	coalesceIn, coalesceOut    int
	coalesceTime               time.Duration
	observeLink, observeDemand []float64 // ms per delivered batch, by class
	observeWall, observeCPU    time.Duration
	advise                     []float64 // µs
	linkUpdates, demandUpdates []float64 // µs per bare-session call
}

type stageTimes struct{ coalesce, observe time.Duration }

// replayDeliveries replays every delivered batch, in delivery order per
// network, through ingest.Coalesce, a fresh ctrl.Selector
// (ObserveBatch, then Advise) and one bare routing.Session per
// configuration (SetLinkStates, ApplyDemandDelta), timing each call.
func replayDeliveries(members []servingMember, reqs []*request, taps *tapLog) (*replay, error) {
	rp := &replay{perRequest: map[int]stageTimes{}}
	for _, m := range members {
		data, err := json.Marshal(m.lib)
		if err != nil {
			return nil, err
		}
		var lib ctrl.Library
		if err := lib.UnmarshalJSON(data); err != nil {
			return nil, err
		}
		sel, err := ctrl.NewSelector(m.rep.ev, &lib)
		if err != nil {
			return nil, err
		}
		sessions := make([]*routing.Session, lib.Size())
		for i, e := range lib.Entries {
			sessions[i] = m.rep.ev.NewScenarioSession(graph.NewMask(m.rep.g), -1, nil, nil)
			sessions[i].Init(e.W)
		}
		down := make([]bool, m.rep.g.NumLinks())
		next := map[int]int{} // per request: events already delivered
		for _, batch := range taps.batches[m.name] {
			events := make([]scenario.Event, len(batch))
			for i, k := range batch {
				events[i] = reqs[k].eng[next[k]]
				next[k]++
			}
			t0 := time.Now()
			out, st := ingest.Coalesce(events)
			co := time.Since(t0)
			rp.coalesceTime += co
			rp.coalesceIn += st.In
			rp.coalesceOut += st.Out
			cpu0, t1 := selfCPU(), time.Now()
			if err := sel.ObserveBatch(out, 0, 0); err != nil {
				return nil, fmt.Errorf("replay %s: %w", m.name, err)
			}
			obs := time.Since(t1)
			rp.observeWall += obs
			rp.observeCPU += selfCPU() - cpu0
			switch batchClass(out) {
			case "link":
				rp.observeLink = append(rp.observeLink, ms(obs))
			case "demand":
				rp.observeDemand = append(rp.observeDemand, ms(obs))
			}
			t2 := time.Now()
			sel.Advise()
			rp.advise = append(rp.advise, float64(time.Since(t2))/float64(time.Microsecond))
			for k := range uniq(batch) {
				rp.perRequest[k] = stageTimes{co, obs}
			}
			rp.bareSessions(sessions, down, out)
		}
	}
	return rp, nil
}

// bareSessions applies one coalesced batch to every bare session: runs
// of effective link flips as one SetLinkStates call, each demand delta
// as one ApplyDemandDelta call.
func (rp *replay) bareSessions(sessions []*routing.Session, down []bool, events []scenario.Event) {
	var changes []routing.LinkStateChange
	flush := func() {
		if len(changes) == 0 {
			return
		}
		for _, s := range sessions {
			t0 := time.Now()
			s.SetLinkStates(changes)
			rp.linkUpdates = append(rp.linkUpdates, float64(time.Since(t0))/float64(time.Microsecond))
		}
		changes = changes[:0]
	}
	for _, e := range events {
		switch e.Kind {
		case scenario.EventLinkDown, scenario.EventLinkUp:
			up := e.Kind == scenario.EventLinkUp
			if down[e.Link] == up {
				down[e.Link] = !up
				changes = append(changes, routing.LinkStateChange{Link: e.Link, Up: up})
			}
		case scenario.EventDemandDelta:
			flush()
			for _, s := range sessions {
				t0 := time.Now()
				s.ApplyDemandDelta(e.DeltaD, e.DeltaT)
				rp.demandUpdates = append(rp.demandUpdates, float64(time.Since(t0))/float64(time.Microsecond))
			}
		}
	}
	flush()
}

func (rp *replay) apply(r *run) {
	if rp.coalesceIn > 0 {
		r.set("ingest.coalesce_us_per_event", float64(rp.coalesceTime)/float64(time.Microsecond)/float64(rp.coalesceIn))
	}
	r.set("ctrl.observe_link_ms_p50", newDist(rp.observeLink).p50())
	r.set("ctrl.observe_demand_ms_p50", newDist(rp.observeDemand).p50())
	if rp.observeWall > 0 {
		r.set("ctrl.fanout_cpu_per_wall", float64(rp.observeCPU)/float64(rp.observeWall))
	}
	r.set("ctrl.advise_us_p50", newDist(rp.advise).p50())
	r.set("routing.link_update_us_p50", newDist(rp.linkUpdates).p50())
	r.set("routing.demand_update_us_p50", newDist(rp.demandUpdates).p50())
}

// batchClass is "link" or "demand" for a batch of one kind, else "mixed".
func batchClass(events []scenario.Event) string {
	class := ""
	for _, e := range events {
		c := "link"
		if e.Kind == scenario.EventDemandDelta || e.Kind == scenario.EventDemand {
			c = "demand"
		}
		if class != "" && class != c {
			return "mixed"
		}
		class = c
	}
	return class
}

func uniq(xs []int) map[int]bool {
	out := map[int]bool{}
	for _, x := range xs {
		out[x] = true
	}
	return out
}

type walReplay struct{ usPerEvent, bytesPerEvent float64 }

// replayWAL appends every admitted request to a fresh write-ahead log
// per network, as the shard does ahead of admission, and times it.
func replayWAL(cfg config, members []servingMember, reqs []*request) (walReplay, error) {
	dir, err := os.MkdirTemp(cfg.work, "wal-")
	if err != nil {
		return walReplay{}, err
	}
	defer os.RemoveAll(dir)
	stores := map[string]*fleet.Store{}
	seqs := map[string]uint64{}
	for _, m := range members {
		st, err := fleet.OpenStore(filepath.Join(dir, m.name))
		if err != nil {
			return walReplay{}, err
		}
		defer st.Close()
		stores[m.name] = st
	}
	var spent time.Duration
	events := 0
	for _, rq := range reqs {
		if !rq.admitted() {
			continue
		}
		seqs[rq.network] += uint64(len(rq.eng))
		t0 := time.Now()
		if err := stores[rq.network].Append(seqs[rq.network], rq.eng); err != nil {
			return walReplay{}, fmt.Errorf("wal append: %w", err)
		}
		spent += time.Since(t0)
		events += len(rq.eng)
	}
	var bytes int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			bytes += fi.Size()
		}
		return nil
	})
	if events == 0 {
		return walReplay{}, nil
	}
	return walReplay{
		usPerEvent:    float64(spent) / float64(time.Microsecond) / float64(events),
		bytesPerEvent: float64(bytes) / float64(events),
	}, nil
}

// traceNetday repeats netday-100 traced in-process, then the plan phase
// through Fleet.Plan.
func traceNetday(cfg config, r *run, in *netdayInputs, reqs []*request, untracedP50 float64) error {
	installRegistry()
	defer obsv.SetDefault(nil)
	nw, err := repro.NewNetwork(netdaySpec.facade())
	if err != nil {
		return err
	}
	lib, err := nw.LibraryFromJSON(in.libJSON)
	if err != nil {
		return err
	}
	members := []servingMember{{name: "net0", nw: nw, lib: lib, rep: in.rep}}
	t, err := traceServing(cfg, r, members, reqs, 0, untracedP50)
	if err != nil {
		return err
	}
	defer t.close()
	// Restore the base state, then plan through the facade.
	var restore []repro.ControlEvent
	for _, inc := range in.active {
		restore = append(restore, wire(inc.recovery, "net0")...)
	}
	if _, err := t.fleet.Enqueue(restore); err != nil {
		return err
	}
	var plans, steps []float64
	for _, inc := range in.plans {
		if _, err := t.fleet.Enqueue(wire(inc.onset, "net0")); err != nil {
			return err
		}
		if err := t.fleet.Quiesce("net0"); err != nil {
			return err
		}
		adv, err := t.fleet.Advise("net0")
		if err != nil {
			return err
		}
		target := adv.Config
		if target == adv.Active {
			target = (adv.Active + 1) % lib.Size()
		}
		t0 := time.Now()
		plan, err := t.fleet.Plan("net0", target, 5)
		if err != nil {
			return err
		}
		plans = append(plans, ms(time.Since(t0)))
		steps = append(steps, float64(len(plan.Steps)))
		if _, err := t.fleet.Enqueue(wire(inc.recovery, "net0")); err != nil {
			return err
		}
		if err := t.fleet.Quiesce("net0"); err != nil {
			return err
		}
	}
	r.set("ctrl.plan_ms_p50", newDist(plans).p50())
	r.set("ctrl.plan_steps_mean", newDist(steps).mean())
	return nil
}

// traceFirehose repeats firehose-4x30 traced in-process through the
// facade fleet, on the networks and libraries the untraced run built,
// with the same checkpoint cadence.
func traceFirehose(cfg config, r *run, reps []*replica, nws []*repro.Network, libs []*repro.Library, reqs []*request, untracedP50 float64) error {
	installRegistry()
	defer obsv.SetDefault(nil)
	members := make([]servingMember, len(reps))
	for i, rep := range reps {
		members[i] = servingMember{name: firehoseName(i), nw: nws[i], lib: libs[i], rep: rep}
	}
	t, err := traceServing(cfg, r, members, reqs, firehoseCheckpoint, untracedP50)
	if err != nil {
		return err
	}
	return t.close()
}
