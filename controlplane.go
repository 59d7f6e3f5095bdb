package repro

import (
	"fmt"

	"repro/internal/ctrl"
	"repro/internal/fleet"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// Library is a set of precomputed routing configurations covering a
// scenario space, bound to the network it was built for. Build one with
// Network.BuildLibrary (scenario clustering + per-cluster robust
// optimization), assemble one from saved routings with
// Network.LibraryFromRoutings, or reload one with
// Network.LibraryFromJSON.
type Library struct {
	lib *ctrl.Library
	net *Network
}

// Size returns the number of configurations.
func (l *Library) Size() int { return l.lib.Size() }

// Names lists the configuration names in index order.
func (l *Library) Names() []string {
	names := make([]string, l.lib.Size())
	for i, e := range l.lib.Entries {
		names[i] = e.Name
	}
	return names
}

// Routing returns configuration i as a Routing bound to the library's
// network (a copy; mutating it never touches the library).
func (l *Library) Routing(i int) (*Routing, error) {
	if i < 0 || i >= l.lib.Size() {
		return nil, fmt.Errorf("repro: configuration %d out of range [0,%d)", i, l.lib.Size())
	}
	return &Routing{w: l.lib.Entries[i].W.Clone(), net: l.net}, nil
}

// MarshalJSON encodes the library (weights via the routing codec), so
// it can be stored and reloaded with Network.LibraryFromJSON.
func (l *Library) MarshalJSON() ([]byte, error) { return l.lib.MarshalJSON() }

// LibraryFromJSON decodes a library saved with MarshalJSON and binds it
// to this network. Link counts must match.
func (n *Network) LibraryFromJSON(data []byte) (*Library, error) {
	var lib ctrl.Library
	if err := lib.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	if lib.Links() != n.g.NumLinks() {
		return nil, fmt.Errorf("repro: library covers %d links, network has %d", lib.Links(), n.g.NumLinks())
	}
	return &Library{lib: &lib, net: n}, nil
}

// LibraryFromRoutings assembles a library from already-optimized
// routings (e.g. dtropt -weights-out files), without scenario
// clustering or fingerprints. names may be nil.
func (n *Network) LibraryFromRoutings(names []string, routings ...*Routing) (*Library, error) {
	ws := make([]*routing.WeightSetting, len(routings))
	for i, r := range routings {
		if r == nil {
			return nil, fmt.Errorf("repro: nil routing at position %d", i)
		}
		ws[i] = r.w
	}
	lib, err := ctrl.FromWeightSettings(n.ev, names, ws, scenario.Set{})
	if err != nil {
		return nil, err
	}
	return &Library{lib: lib, net: n}, nil
}

// LibraryOptions controls Network.BuildLibrary.
type LibraryOptions struct {
	// Size is the target number of configurations (default 4); the
	// library may come out smaller when the scenario space has fewer
	// distinct behaviours.
	Size int
	// Budget selects the per-cluster search effort: "quick", "std"
	// (default) or "paper", as in OptimizeOptions.
	Budget string
	// SessionMemoryBudgetBytes caps the incremental-session memory of
	// each cluster search (0 = the 1 GiB default); see OptimizeOptions.
	SessionMemoryBudgetBytes int64
	// Workers is the per-session recompute worker budget of the cluster
	// searches (0 or 1 = serial); see OptimizeOptions.Workers.
	Workers int
	// Seed drives the search and the clustering.
	Seed int64
}

// BuildLibrary precomputes a configuration library for a scenario set:
// Phase 1 runs once; the scenario space is clustered by each scenario's
// objective response; each cluster gets its own robust (Phase 2)
// search; every entry is fingerprinted against the full set. All
// entries satisfy the normal-conditions constraints of Eqs. (5)-(6), so
// switching between them never trades away normal performance beyond
// the paper's χ tolerance.
func (n *Network) BuildLibrary(set *ScenarioSet, opts LibraryOptions) (*Library, error) {
	if set == nil {
		return nil, fmt.Errorf("repro: nil scenario set")
	}
	if set.net != n {
		return nil, fmt.Errorf("repro: scenario set %q was built from a different network", set.Name())
	}
	cfg, err := optConfigForBudget(opts.Budget)
	if err != nil {
		return nil, err
	}
	cfg.Seed = opts.Seed
	cfg.SessionBudgetBytes = opts.SessionMemoryBudgetBytes
	cfg.Parallelism = opts.Workers
	lib, err := ctrl.BuildLibrary(n.ev, set.set, ctrl.BuildConfig{K: opts.Size, Opt: cfg})
	if err != nil {
		return nil, err
	}
	return &Library{lib: lib, net: n}, nil
}

// DemandDelta is a sparse demand update: the (source, destination)
// entries whose demand changes, each carrying the value before and
// after in Mbps. It is the wire form of a traffic shift that touches
// few pairs — a hot-spot surge touches O(1) of the n destination
// columns — and the control plane evaluates it incrementally,
// recomputing only the touched columns per candidate configuration.
// JSON shape: {"entries":[{"s":0,"t":3,"old":1.5,"new":6.0},…]}.
type DemandDelta = traffic.Delta

// DemandDeltaEntry is one entry of a DemandDelta.
type DemandDeltaEntry = traffic.DeltaEntry

// ControlEvent is one telemetry update fed to a Controller: a directed
// link going down or coming back, a uniform demand-scale update, or a
// sparse demand-delta update. Richer dense traffic shifts enter
// through Controller.ReplayEpisode, which replays scenario-set
// episodes.
type ControlEvent struct {
	// Kind is "link-down", "link-up", "demand-scale" or "demand-delta".
	Kind string
	// Network names the network the event belongs to, for fleet
	// deployments (Fleet routes each event to the named shard; an empty
	// Network means the fleet's default, first-configured network). A
	// single-network Controller ignores it.
	Network string
	// Link is the directed link index of a link event.
	Link int
	// Scale multiplies the base demand matrices of both classes on a
	// "demand-scale" event; 0 or 1 restores the base traffic.
	Scale float64
	// DeltaD and DeltaT are the per-class sparse updates of a
	// "demand-delta" event (nil = no change in that class), applied on
	// top of the demand state currently in effect.
	DeltaD, DeltaT *DemandDelta
	// Label is an optional provenance tag (producer ID, sequence echo)
	// carried through the intake pipeline to audit taps; it does not
	// affect evaluation.
	Label string
}

// Controller is the online control plane of one network: it tracks
// current conditions through telemetry events, keeps every library
// configuration scored incrementally (one persistent session per
// configuration), advises which configuration fits the conditions
// best, and plans bounded-change migrations toward it. It is safe for
// concurrent use. The core logic lives in internal/fleet (one
// Controller per fleet shard); this facade adds wire-event conversion.
// Multi-network deployments wrap one core per network in a Fleet.
type Controller struct {
	net  *Network
	lib  *Library
	core *fleet.Controller
}

// SetParallelism sets the recompute worker budget of every candidate
// session the controller keeps (routing.Session.SetParallelism): k <= 0
// means GOMAXPROCS, 1 (the default) keeps each session serial. Results
// are bit-identical at every setting; workers trade only the wall-clock
// latency of Observe on large topologies.
func (c *Controller) SetParallelism(k int) { c.core.SetParallelism(k) }

// NewController starts a controller on the intact network with base
// traffic, deploying the library configuration that scores best there.
func (n *Network) NewController(lib *Library) (*Controller, error) {
	core, err := n.newCore(lib)
	if err != nil {
		return nil, err
	}
	return &Controller{net: n, lib: lib, core: core}, nil
}

// newCore builds the fleet-layer controller core for this network and
// library (NewController wraps one; Fleet shards build their own so
// crash recovery can rebuild them).
func (n *Network) newCore(lib *Library) (*fleet.Controller, error) {
	if lib == nil {
		return nil, fmt.Errorf("repro: nil library")
	}
	if lib.net != n {
		return nil, fmt.Errorf("repro: library was built for a different network")
	}
	return fleet.NewController(n.ev, lib.lib)
}

// Observe folds one telemetry event into the controller, as a batch of
// one.
func (c *Controller) Observe(e ControlEvent) error {
	ev, err := c.net.toEvent(e)
	if err != nil {
		return err
	}
	return c.core.ObserveBatch([]scenario.Event{ev}, 0, 0)
}

// ObserveBatch folds an ordered batch of telemetry events into the
// controller under one lock acquisition, collapsing runs of link
// events into multi-link session updates. Validation is all-or-
// nothing: a malformed event rejects the whole batch before any state
// changes. The resulting state is bit-identical to calling Observe
// once per event, in order.
func (c *Controller) ObserveBatch(events []ControlEvent) error {
	evs, err := c.toEvents(events)
	if err != nil {
		return err
	}
	return c.core.ObserveBatch(evs, 0, 0)
}

// toEvent converts one wire event to the engine's scenario event. It
// holds no lock: it reads only the immutable base demand matrices, so
// the intake queue can convert batches without serializing against
// selector work.
func (n *Network) toEvent(e ControlEvent) (scenario.Event, error) {
	switch e.Kind {
	case "link-down":
		return scenario.Event{Kind: scenario.EventLinkDown, Link: e.Link, Label: e.Label}, nil
	case "link-up":
		return scenario.Event{Kind: scenario.EventLinkUp, Link: e.Link, Label: e.Label}, nil
	case "demand-scale":
		if e.Scale < 0 {
			return scenario.Event{}, fmt.Errorf("repro: negative demand scale %g", e.Scale)
		}
		ev := scenario.Event{Kind: scenario.EventDemand, Label: e.Label}
		if e.Scale != 0 && e.Scale != 1 {
			ev.DemD = n.demD.Clone().Scale(e.Scale)
			ev.DemT = n.demT.Clone().Scale(e.Scale)
		}
		return ev, nil
	case "demand-delta":
		return scenario.Event{Kind: scenario.EventDemandDelta, DeltaD: e.DeltaD, DeltaT: e.DeltaT, Label: e.Label}, nil
	}
	return scenario.Event{}, fmt.Errorf("repro: unknown event kind %q (link-down|link-up|demand-scale|demand-delta)", e.Kind)
}

// toEvents converts and validates a whole batch without observing it,
// so admission (the intake queue) can reject malformed batches before
// they are queued. Validation reads only immutable shape state, so this
// too runs without the controller lock.
func (c *Controller) toEvents(events []ControlEvent) ([]scenario.Event, error) {
	evs := make([]scenario.Event, len(events))
	for i, e := range events {
		ev, err := c.net.toEvent(e)
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		if err := c.core.Validate(ev); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		evs[i] = ev
	}
	return evs, nil
}

// ReplayEpisode replays scenario i of the set as telemetry: its onset
// events when onset is true, its recovery events otherwise. Scenario
// sets thus double as replayable "days" of incidents.
func (c *Controller) ReplayEpisode(set *ScenarioSet, i int, onset bool) error {
	if set == nil || set.net != c.net {
		return fmt.Errorf("repro: scenario set was built from a different network")
	}
	if i < 0 || i >= set.Size() {
		return fmt.Errorf("repro: episode %d out of range [0,%d)", i, set.Size())
	}
	ep := scenario.EpisodeAt(c.net.g, set.set, i)
	events := ep.Onset
	if !onset {
		events = ep.Recovery
	}
	return c.core.ObserveBatch(events, 0, 0)
}

// Advice reports the configuration the controller would run now.
type Advice struct {
	// Config and Name identify the best library configuration for the
	// current conditions; Evaluation is its (bit-exact) score there.
	Config int
	Name   string
	Evaluation
	// Active is the currently deployed configuration (-1 mid-migration);
	// ShouldSwitch is Config != Active.
	Active       int
	ShouldSwitch bool
}

// Advise scores every configuration under current conditions and
// returns the best (lexicographic ⟨Λ, Φ⟩; ties to the lowest index).
func (c *Controller) Advise() Advice {
	return adviceFrom(c.core.Advise())
}

func adviceFrom(a fleet.Advice) Advice {
	return Advice{
		Config:       a.Config,
		Name:         a.Name,
		Evaluation:   toEval(&a.Result),
		Active:       a.Active,
		ShouldSwitch: a.ShouldSwitch,
	}
}

// MigrationStep is one link rewrite of a migration plan.
type MigrationStep struct {
	// Link is the rewritten directed link; Delay and Throughput its new
	// class weights.
	Link              int
	Delay, Throughput int
	// Evaluation is the network state after this step under the
	// planning conditions; LoopFree records the independent
	// forwarding-loop verification of that intermediate state.
	Evaluation Evaluation
	LoopFree   bool
}

// MigrationPlan is an ordered, verified migration from the deployed
// weights toward a library configuration.
type MigrationPlan struct {
	// Target and TargetName identify the destination configuration.
	Target     int
	TargetName string
	// Steps are the rewrites in apply order; every step was
	// SLA-evaluated and verified loop-free when planned.
	Steps []MigrationStep
	// Complete reports whether the plan reaches the target; otherwise
	// Remaining links are left for a later stage (staged partial
	// migration) and Blocked reports that no SLA-feasible step existed.
	Complete  bool
	Remaining int
	Blocked   bool
	// Start, Final and TargetEval evaluate the current weights, the
	// post-plan weights and the full target under planning conditions.
	Start, Final, TargetEval Evaluation

	// p is the fleet-layer plan this facade view was built from; Apply
	// hands it back to the core, which refuses a plan whose base no
	// longer matches the deployed weights (stale plan).
	p *fleet.Plan
}

// Plan computes a bounded-change migration from the deployed weights to
// library configuration target under the current conditions. At most
// maxChanges links are rewritten (≤ 0: unbounded); the apply order
// keeps every intermediate state loop-free and within the SLA envelope
// of the endpoints. When the budget binds, the plan is a stage:
// applying it and re-planning later continues the migration.
func (c *Controller) Plan(target, maxChanges int) (*MigrationPlan, error) {
	p, err := c.core.Plan(target, maxChanges)
	if err != nil {
		return nil, err
	}
	return planFrom(p), nil
}

func planFrom(p *fleet.Plan) *MigrationPlan {
	plan := &MigrationPlan{
		Target:     p.Target,
		TargetName: p.TargetName,
		Complete:   p.P.Complete,
		Remaining:  p.P.Remaining,
		Blocked:    p.P.Blocked,
		Start:      toEval(&p.P.Start),
		Final:      toEval(&p.P.Final),
		TargetEval: toEval(&p.P.Target),
		p:          p,
	}
	for _, st := range p.P.Steps {
		plan.Steps = append(plan.Steps, MigrationStep{
			Link:       st.Link,
			Delay:      int(st.Delay),
			Throughput: int(st.Throughput),
			Evaluation: toEval(&st.Result),
			LoopFree:   st.LoopFree,
		})
	}
	return plan
}

// Apply commits a plan's rewrites to the deployed weights. A complete
// plan lands exactly on its target configuration; a partial plan leaves
// the controller mid-migration (Active reports -1) until a follow-up
// plan finishes the job. A plan whose base no longer matches the
// deployed weights — another plan was applied since it was computed, so
// its verified intermediate states no longer apply — is rejected, as is
// a plan not produced by this controller's Plan. Validation happens
// before any mutation: a rejected plan changes nothing.
func (c *Controller) Apply(plan *MigrationPlan) error {
	if plan == nil {
		return fmt.Errorf("repro: nil plan")
	}
	if plan.p == nil {
		return fmt.Errorf("repro: plan was not produced by Controller.Plan")
	}
	return c.core.Apply(plan.p)
}

// ConfigState is one configuration's live score.
type ConfigState struct {
	Name string
	Evaluation
}

// ControllerState is a snapshot of the controller.
type ControllerState struct {
	// Active and ActiveName identify the deployed configuration; Active
	// is -1 (and ActiveName "partial-migration") mid-migration.
	Active     int
	ActiveName string
	// Deployed evaluates the deployed weights under current conditions.
	Deployed Evaluation
	// DownLinks lists the links currently observed down; Events counts
	// telemetry events consumed.
	DownLinks []int
	Events    int
	// Configs scores every library configuration under the current
	// conditions, in library order.
	Configs []ConfigState
}

// State snapshots the controller's view of the network.
func (c *Controller) State() ControllerState {
	return stateFrom(c.core.State())
}

func stateFrom(s fleet.State) ControllerState {
	st := ControllerState{
		Active:     s.Active,
		ActiveName: s.ActiveName,
		Deployed:   toEval(&s.Deployed),
		DownLinks:  s.DownLinks,
		Events:     s.Events,
	}
	for _, cs := range s.Configs {
		st.Configs = append(st.Configs, ConfigState{Name: cs.Name, Evaluation: toEval(&cs.Result)})
	}
	return st
}
