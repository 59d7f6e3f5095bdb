package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// netday-100: dtrd serves the 100-node/500-link RandTopo of Table III
// (seed 1) with the committed 8-configuration library, fed an open-loop
// Poisson day of incidents, then a closed-loop plan phase.
var netdaySpec = netSpec{nodes: 100, links: 500, seed: 1}

const (
	// netdayFixture was built once with
	//   dtrd -nodes 100 -links 500 -seed 1 -build 8 -budget quick -library-out testdata/netday100-library.json
	// and keeps setup independent of optimizer changes.
	netdayFixture = "testdata/netday100-library.json"
	// netdayRate is the offered load in requests per second: each
	// incident's onset and its recovery are one request each, about 45
	// events/s in all. It keeps dtrd busy a sixth of the time on 2
	// cores, so time-to-advice is mostly service time, not queueing.
	netdayRate = 20.0
	// netdayHold is the mean incident duration; holds are exponential,
	// clamped to [20ms, 1s].
	netdayHold = 200 * time.Millisecond
	// netdaySRLGCells is the SRLG grid: 8×8 cells over the node bounding
	// box keeps a shared-risk group to a few physical edges (the 4×4
	// default builds groups of up to 33 edges on this topology).
	netdaySRLGCells = 8
	// netdayPlanIncidents is the size of the fixed plan-phase list.
	netdayPlanIncidents = 4
	// maxLateness bounds the generator's tail lateness; a run past it is
	// invalid (the harness, not dtrd, set the pace).
	maxLateness = 500 * time.Millisecond
)

// incident is one telemetry incident: its onset and recovery events and
// the links and demand columns it touches.
type incident struct {
	class           string // "link" or "demand"
	onset, recovery []scenario.Event
	links, cols     []int
}

// netdayPools renders the candidate incidents: single-link, dual-link
// and SRLG failures, and upload hot-spot surges (10% of nodes as
// servers, so one surge touches 10 destination columns), all
// deterministic in seed.
func netdayPools(r *replica, seed int64) (single, dual, srlg, surge []incident) {
	linkPool := func(set scenario.Set) []incident {
		var out []incident
		for _, ep := range scenario.Episodes(r.g, set) {
			inc := incident{class: "link", onset: ep.Onset, recovery: ep.Recovery}
			for _, e := range ep.Onset {
				inc.links = append(inc.links, e.Link)
			}
			out = append(out, inc)
		}
		return out
	}
	single = linkPool(scenario.SingleLinkFailures(r.g))
	dual = linkPool(scenario.DualLinkFailures(r.g, 300, seed))
	srlg = linkPool(scenario.SRLGFailures(r.g, netdaySRLGCells))
	h := traffic.DefaultHotspot(false)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < 400; i++ {
		d, t := h.Apply(r.demD, r.demT, rng)
		dd, dt := traffic.Diff(r.demD, d), traffic.Diff(r.demT, t)
		label := fmt.Sprintf("surge:%d", i)
		inc := incident{
			class:    "demand",
			onset:    []scenario.Event{{Kind: scenario.EventDemandDelta, DeltaD: dd, DeltaT: dt, Label: label}},
			recovery: []scenario.Event{{Kind: scenario.EventDemandDelta, DeltaD: dd.Inverse(), DeltaT: dt.Inverse(), Label: label}},
		}
		seen := map[int]bool{}
		for _, e := range append(slices.Clone(dd.Entries), dt.Entries...) {
			if !seen[e.T] {
				seen[e.T] = true
				inc.cols = append(inc.cols, e.T)
			}
		}
		surge = append(surge, inc)
	}
	return single, dual, srlg, surge
}

// netdayItem is one scheduled request of the day, before encoding.
type netdayItem struct {
	due    time.Duration
	class  string
	events []scenario.Event
}

// netdaySchedule draws the open-loop day: onsets of a Poisson process
// at half the request rate, conditioned on its expected count (sorted
// uniform arrival times), alternating link incidents and surges. Link
// incidents cycle single, dual, single, SRLG, dual, so every seed offers
// the same mix. Each incident is recovered after an exponential hold.
// Incidents that overlap in time touch disjoint links and demand
// columns, so every recovery restores the base state of what it
// touched. Only requests due before the horizon are kept, so the day
// ends with some incidents still active.
func netdaySchedule(r *replica, seed int64, horizon time.Duration) (items []netdayItem, active []incident) {
	single, dual, srlg, surge := netdayPools(r, seed)
	rng := rand.New(rand.NewSource(seed))
	type live struct {
		inc incident
		end time.Duration
	}
	var lives []live
	disjoint := func(inc incident, now time.Duration) bool {
		for _, l := range lives {
			if l.end <= now {
				continue
			}
			for _, a := range inc.links {
				if slices.Contains(l.inc.links, a) {
					return false
				}
			}
			for _, c := range inc.cols {
				if slices.Contains(l.inc.cols, c) {
					return false
				}
			}
		}
		return true
	}
	pick := func(pool []incident, now time.Duration) (incident, bool) {
		for _, i := range rng.Perm(len(pool)) {
			if disjoint(pool[i], now) {
				return pool[i], true
			}
		}
		return incident{}, false
	}
	onsets := make([]time.Duration, int(netdayRate/2*horizon.Seconds()))
	for i := range onsets {
		onsets[i] = time.Duration(rng.Int63n(int64(horizon)))
	}
	slices.Sort(onsets)
	linkCycle := [][]incident{single, dual, single, srlg, dual}
	links := 0
	for n, now := range onsets {
		inc, ok := incident{}, false
		if n%2 == 1 {
			inc, ok = pick(surge, now)
		}
		if !ok {
			inc, ok = pick(linkCycle[links%len(linkCycle)], now)
			links++
		}
		if !ok {
			continue
		}
		hold := time.Duration(rng.ExpFloat64() * float64(netdayHold))
		hold = min(max(hold, 20*time.Millisecond), time.Second)
		lives = append(lives, live{inc, now + hold})
		items = append(items, netdayItem{due: now, class: inc.class, events: inc.onset})
		if now+hold < horizon {
			items = append(items, netdayItem{due: now + hold, class: inc.class, events: inc.recovery})
		} else {
			active = append(active, inc)
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].due < items[j].due })
	return items, active
}

// netdayPlanList is the fixed plan-phase list: the same incidents on
// every seed, so plan timings compare across runs.
func netdayPlanList(r *replica) []incident {
	single, dual, srlg, surge := netdayPools(r, 1)
	return []incident{dual[0], surge[0], srlg[0], surge[1], single[0]}[:netdayPlanIncidents]
}

// netdayInputs is everything the untraced and the traced run share.
type netdayInputs struct {
	rep     *replica
	nw      *repro.Network
	libJSON []byte
	items   []netdayItem
	active  []incident
	plans   []incident
}

func loadNetday(cfg config) (*netdayInputs, error) {
	rep, err := newReplica(netdaySpec)
	if err != nil {
		return nil, err
	}
	nw, err := repro.NewNetwork(netdaySpec.facade())
	if err != nil {
		return nil, err
	}
	libJSON, err := os.ReadFile(filepath.Join(cfg.dir, netdayFixture))
	if err != nil {
		return nil, fmt.Errorf("library fixture: %w", err)
	}
	in := &netdayInputs{rep: rep, nw: nw, libJSON: libJSON}
	in.items, in.active = netdaySchedule(rep, cfg.seed, time.Duration(cfg.seconds)*time.Second)
	in.plans = netdayPlanList(rep)
	return in, nil
}

// requests encodes the day's requests for the default network.
func (in *netdayInputs) requests() []*request {
	reqs := make([]*request, len(in.items))
	for i, it := range in.items {
		reqs[i] = newRequest(i, it.due, "net0", it.class, it.events)
	}
	return reqs
}

func runNetday(cfg config, r *run) error {
	in, err := loadNetday(cfg)
	if err != nil {
		return err
	}
	r.check("replica matches facade", checkReplica(in.rep, in.nw))
	lib, err := in.nw.LibraryFromJSON(in.libJSON)
	if err != nil {
		return fmt.Errorf("library fixture: %w", err)
	}
	oracle, err := in.nw.NewController(lib)
	if err != nil {
		return err
	}
	args := []string{"-topology", "rand", "-nodes", "100", "-links", "500", "-seed", "1",
		"-library", filepath.Join(cfg.dir, netdayFixture)}
	// Set-up repeats only where setup_s is printed.
	starts := 5
	if cfg.smoke || cfg.trace {
		starts = 1
	}
	d, setup, err := startRepeated(cfg, starts, 60*time.Second, func() ([]string, error) { return args, nil })
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	r.set("setup_s", setup)
	tele, ctl := newClient(), newClient()
	defer tele.close()
	defer ctl.close()

	r.check("config scores match rebuild", compareConfigs(ctl, d.base, "net0", oracle.State()))

	reqs := in.requests()
	w, err := measureServing(cfg, r, d, tele, ctl, reqs)
	if err != nil {
		return err
	}
	w.slowest(r, 5)
	link, _ := w.ttaOf("link").tail()
	demand, _ := w.ttaOf("demand").tail()
	r.set("dtrd.tta_link_tail_ms", link)
	r.set("dtrd.tta_demand_tail_ms", demand)

	// The oracle: a facade controller fed the admitted events one at a
	// time, in admission order.
	var admittedEvents []repro.ControlEvent
	for i, rq := range reqs {
		if rq.admitted() {
			admittedEvents = append(admittedEvents, wire(in.items[i].events, "")...)
		}
	}
	r.check("final state matches oracle", compareOracle(ctl, d.base, "net0", oracle, admittedEvents))

	// Restore the base state, then run the plan phase.
	var restore []scenario.Event
	for _, inc := range in.active {
		restore = append(restore, inc.recovery...)
	}
	if len(restore) > 0 {
		if err := observe(tele, ctl, d.base, "net0", wire(restore, "")); err != nil {
			return fmt.Errorf("restore base state: %w", err)
		}
	}
	plans, steps, err := planPhase(tele, ctl, d.base, in.plans)
	r.ops(len(in.plans), 0)
	if err != nil {
		return fmt.Errorf("plan phase: %w", err)
	}
	r.set("dtrd.plan_rtt_p50_ms", newDist(plans).p50())
	r.note("plan phase: %d plans, p50 %.1fms, %.1f steps on average", len(plans), newDist(plans).p50(), newDist(steps).mean())

	if err := daemonTotals(r, ctl, d); err != nil {
		return err
	}
	r.check("dtrd exits 0 on SIGTERM", d.stop())
	d = nil
	if cfg.trace {
		return traceNetday(cfg, r, in, reqs, w.ttaOf("").p50())
	}
	return nil
}

func latenessOK(tailMs float64) error {
	if bound := ms(maxLateness); tailMs > bound {
		return fmt.Errorf("generator ran %.1fms late at its tail (bound %.0fms): the run is invalid", tailMs, bound)
	}
	return nil
}

// startRepeated starts dtrd n times with the arguments args returns,
// stopping all but the last start, and returns the last with the median
// set-up time in seconds.
func startRepeated(cfg config, n int, timeout time.Duration, args func() ([]string, error)) (*daemon, float64, error) {
	var setups []float64
	for i := 0; i < n; i++ {
		a, err := args()
		if err != nil {
			return nil, 0, err
		}
		d, setup, err := startDaemon(cfg.dtrd, a, timeout)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, setup.Seconds())
		if i == n-1 {
			return d, median(setups), nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, fmt.Errorf("set-up repeat %d: %w", i, err)
		}
	}
	return nil, 0, fmt.Errorf("no set-up")
}

// compareConfigs checks every configuration's score in dtrd's /state
// against the in-process rebuild, bit for bit.
func compareConfigs(c *client, base, network string, want repro.ControllerState) error {
	var got repro.ControllerState
	if err := c.getJSON(base+"/state?network="+network, &got); err != nil {
		return err
	}
	if len(got.Configs) != len(want.Configs) {
		return fmt.Errorf("dtrd serves %d configurations, rebuild has %d", len(got.Configs), len(want.Configs))
	}
	for i := range got.Configs {
		if got.Configs[i].Name != want.Configs[i].Name || !sameEval(got.Configs[i].Evaluation, want.Configs[i].Evaluation) {
			return fmt.Errorf("configuration %d: dtrd %+v, rebuild %+v", i, got.Configs[i], want.Configs[i])
		}
	}
	if got.Active != want.Active {
		return fmt.Errorf("dtrd deploys %d, rebuild %d", got.Active, want.Active)
	}
	return nil
}

// compareOracle feeds events to the oracle one at a time and checks
// dtrd's final down-links, advice and advised evaluation, and every
// configuration's score, bit for bit. The consumed-event count is not
// compared: the selector counts effective transitions, and coalescing
// legitimately folds a flap and its recovery into none.
func compareOracle(c *client, base, network string, oracle *repro.Controller, events []repro.ControlEvent) error {
	for i, e := range events {
		if err := oracle.Observe(e); err != nil {
			return fmt.Errorf("oracle event %d: %w", i, err)
		}
	}
	var st repro.ControllerState
	if err := c.getJSON(base+"/state?network="+network, &st); err != nil {
		return err
	}
	var adv repro.Advice
	if err := c.getJSON(base+"/advise?network="+network, &adv); err != nil {
		return err
	}
	want, wantAdv := oracle.State(), oracle.Advise()
	switch {
	case !slices.Equal(st.DownLinks, want.DownLinks):
		return fmt.Errorf("down links: dtrd %v, oracle %v", st.DownLinks, want.DownLinks)
	case adv.Config != wantAdv.Config:
		return fmt.Errorf("advice: dtrd %d, oracle %d", adv.Config, wantAdv.Config)
	case !sameEval(adv.Evaluation, wantAdv.Evaluation):
		return fmt.Errorf("advised evaluation: dtrd %+v, oracle %+v", adv.Evaluation, wantAdv.Evaluation)
	case len(st.Configs) != len(want.Configs):
		return fmt.Errorf("dtrd scores %d configurations, oracle %d", len(st.Configs), len(want.Configs))
	}
	for i := range st.Configs {
		if !sameEval(st.Configs[i].Evaluation, want.Configs[i].Evaluation) {
			return fmt.Errorf("configuration %d: dtrd %+v, oracle %+v", i, st.Configs[i].Evaluation, want.Configs[i].Evaluation)
		}
	}
	return nil
}

// observe posts one batch and waits until dtrd has applied it.
func observe(tele, ctl *client, base, network string, events []repro.ControlEvent) error {
	code, body, err := tele.post(base+"/observe", encodeBatch(events))
	if err != nil {
		return err
	}
	if code != 202 {
		return fmt.Errorf("POST /observe: %d %s", code, body)
	}
	return ctl.postJSON(base+"/fleet/quiesce?network="+network, nil, nil)
}

// planPhase runs the closed-loop plan phase: per incident, post the
// onset, quiesce, advise, plan toward the advised configuration (or the
// next one when advice keeps the deployed one), post the recovery. It
// returns the plan round trips in ms and the step counts.
func planPhase(tele, ctl *client, base string, list []incident) (rtts, steps []float64, err error) {
	for _, inc := range list {
		if err := observe(tele, ctl, base, "net0", wire(inc.onset, "")); err != nil {
			return nil, nil, err
		}
		var adv repro.Advice
		if err := ctl.getJSON(base+"/advise", &adv); err != nil {
			return nil, nil, err
		}
		var lib struct{ Configs []string }
		if err := ctl.getJSON(base+"/config", &lib); err != nil {
			return nil, nil, err
		}
		target := adv.Config
		if target == adv.Active {
			target = (adv.Active + 1) % len(lib.Configs)
		}
		body, _ := json.Marshal(map[string]int{"target": target, "max_changes": 5})
		t0 := time.Now()
		var plan repro.MigrationPlan
		if err := ctl.postJSON(base+"/plan", body, &plan); err != nil {
			return nil, nil, err
		}
		rtts = append(rtts, ms(time.Since(t0)))
		steps = append(steps, float64(len(plan.Steps)))
		if err := observe(tele, ctl, base, "net0", wire(inc.recovery, "")); err != nil {
			return nil, nil, err
		}
	}
	return rtts, steps, nil
}
