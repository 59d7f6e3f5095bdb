package fleet

import (
	"fmt"
	"sync"

	"repro/internal/ctrl"
	"repro/internal/obsv"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// Controller is the control-plane core of one network shard: it tracks
// current conditions through telemetry events, keeps every library
// configuration scored incrementally (one persistent ctrl.Selector
// session per configuration), advises which configuration fits the
// conditions best, plans bounded-change migrations toward it, and
// snapshots/restores its state for checkpointing. It is safe for
// concurrent use; the repro facade wraps it with wire-event conversion,
// and a Shard wraps it with an intake queue and a durable event log.
type Controller struct {
	mu       sync.Mutex
	ev       *routing.Evaluator
	lib      *ctrl.Library
	sel      *ctrl.Selector
	deployed *routing.WeightSetting
	active   int // library index the deployed weights equal, -1 mid-migration
}

// NewController starts a controller on the intact network with base
// traffic, deploying the library configuration that scores best there.
func NewController(ev *routing.Evaluator, lib *ctrl.Library) (*Controller, error) {
	sel, err := ctrl.NewSelector(ev, lib)
	if err != nil {
		return nil, err
	}
	c := &Controller{ev: ev, lib: lib, sel: sel}
	best, _ := sel.Advise()
	c.active = best
	c.deployed = lib.Entries[best].W.Clone()
	return c, nil
}

// Library returns the configuration library the controller serves.
func (c *Controller) Library() *ctrl.Library { return c.lib }

// Validate checks an event's shape against the network without touching
// any state; it runs lock-free so admission paths can reject malformed
// batches without serializing against selector work.
func (c *Controller) Validate(e scenario.Event) error { return c.sel.Validate(e) }

// ObserveBatch folds an ordered batch of telemetry events into the
// controller under one lock acquisition; it is the controller's only
// telemetry entry point (a single event is a batch of one). Runs of
// link events collapse into multi-link session updates; the result is
// bit-identical to observing the events one at a time, in order. The
// trace/parent span IDs (zero when untraced) root the batch's spans
// under the caller's trace. Its signature matches ingest.Sink, so an
// intake queue can deliver straight into the controller.
func (c *Controller) ObserveBatch(events []scenario.Event, trace, parent uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sel.ObserveBatch(events, trace, parent)
}

// Advice reports the configuration the controller would run now.
type Advice struct {
	// Config and Name identify the best library configuration for the
	// current conditions; Result is its bit-exact score there.
	Config int
	Name   string
	Result routing.Result
	// Active is the currently deployed configuration (-1 mid-migration);
	// ShouldSwitch is Config != Active.
	Active       int
	ShouldSwitch bool
}

// Advise scores every configuration under current conditions and
// returns the best (lexicographic ⟨Λ, Φ⟩; ties to the lowest index).
func (c *Controller) Advise() Advice {
	c.mu.Lock()
	defer c.mu.Unlock()
	best, res := c.sel.Advise()
	return Advice{
		Config:       best,
		Name:         c.lib.Entries[best].Name,
		Result:       res,
		Active:       c.active,
		ShouldSwitch: best != c.active,
	}
}

// Plan is a bounded-change migration toward a library configuration,
// computed by Controller.Plan and committed by Controller.Apply.
type Plan struct {
	// Target and TargetName identify the destination configuration.
	Target     int
	TargetName string
	// P carries the planner's steps, endpoint evaluations and
	// completeness verdict.
	P *ctrl.Plan

	// base is the deployed weight setting the plan was computed from;
	// Apply refuses a plan whose base no longer matches (stale plan).
	base *routing.WeightSetting
}

// Plan computes a bounded-change migration from the deployed weights to
// library configuration target under the current conditions. At most
// maxChanges links are rewritten (≤ 0: unbounded); the apply order
// keeps every intermediate state loop-free and within the SLA envelope
// of the endpoints. When the budget binds, the plan is a stage:
// applying it and re-planning later continues the migration.
func (c *Controller) Plan(target, maxChanges int) (*Plan, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if target < 0 || target >= c.lib.Size() {
		return nil, fmt.Errorf("fleet: configuration %d out of range [0,%d)", target, c.lib.Size())
	}
	demD, demT := c.sel.Demands()
	trace, root := c.sel.TraceContext()
	p, err := ctrl.PlanMigration(c.ev, c.deployed, c.lib.Entries[target].W, c.sel.Mask(), demD, demT, ctrl.PlanConfig{
		MaxChanges: maxChanges,
		// Bounded-change migration under live failures may have to pass
		// through mildly degraded states; tolerate a small overshoot
		// before declaring a step infeasible.
		ViolationSlack: 2,
		// Hang the planner's span off the trace of the telemetry event
		// that prompted this migration.
		Trace:  trace,
		Parent: root,
	})
	if err != nil {
		return nil, err
	}
	return &Plan{
		Target:     target,
		TargetName: c.lib.Entries[target].Name,
		P:          p,
		base:       c.deployed.Clone(),
	}, nil
}

// Apply commits a plan's rewrites to the deployed weights. A complete
// plan lands exactly on its target configuration; a partial plan leaves
// the controller mid-migration (Active reports -1) until a follow-up
// plan finishes the job. A plan whose base no longer matches the
// deployed weights — another plan was applied since it was computed, so
// its verified intermediate states no longer apply — is rejected, as is
// a plan not produced by this controller's Plan. Validation happens
// before any mutation: a rejected plan changes nothing.
func (c *Controller) Apply(plan *Plan) error {
	if plan == nil {
		return fmt.Errorf("fleet: nil plan")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if plan.base == nil || plan.P == nil {
		return fmt.Errorf("fleet: plan was not produced by Controller.Plan")
	}
	if !c.deployed.Equal(plan.base) {
		return fmt.Errorf("fleet: stale plan: deployed weights changed since it was computed")
	}
	for _, st := range plan.P.Steps {
		if st.Link < 0 || st.Link >= c.deployed.Len() {
			return fmt.Errorf("fleet: plan step link %d out of range", st.Link)
		}
	}
	trace, root := c.sel.TraceContext()
	sp := obsv.Default().Spans().StartAt("apply", trace, root)
	sp.SetAttr("steps", int64(len(plan.P.Steps)))
	for _, st := range plan.P.Steps {
		c.deployed.Set(st.Link, st.Delay, st.Throughput)
	}
	sp.End()
	c.active = -1
	for i, e := range c.lib.Entries {
		if c.deployed.Equal(e.W) {
			c.active = i
			break
		}
	}
	return nil
}

// ConfigScore is one configuration's live evaluation.
type ConfigScore struct {
	Name   string
	Result routing.Result
}

// State is a snapshot of a controller's view of its network.
type State struct {
	// Active and ActiveName identify the deployed configuration; Active
	// is -1 (and ActiveName "partial-migration") mid-migration.
	Active     int
	ActiveName string
	// Deployed evaluates the deployed weights under current conditions.
	Deployed routing.Result
	// DownLinks lists the links currently observed down; Events counts
	// telemetry events consumed.
	DownLinks []int
	Events    int
	// Configs scores every library configuration under the current
	// conditions, in library order.
	Configs []ConfigScore
}

// State snapshots the controller's view of the network.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := State{
		Active:     c.active,
		ActiveName: "partial-migration",
		DownLinks:  c.sel.DownLinks(),
		Events:     c.sel.Events(),
	}
	if c.active >= 0 {
		// Deployed weights equal a library entry, whose bit-exact score
		// the selector already caches.
		st.ActiveName = c.lib.Entries[c.active].Name
		st.Deployed = c.sel.Result(c.active)
	} else {
		demD, demT := c.sel.Demands()
		c.ev.EvaluateDemands(c.deployed, c.sel.Mask(), -1, demD, demT, &st.Deployed)
	}
	for i, e := range c.lib.Entries {
		st.Configs = append(st.Configs, ConfigScore{Name: e.Name, Result: c.sel.Result(i)})
	}
	return st
}

// Snapshot captures the controller's durable state — everything needed
// to rebuild a bit-identical controller on the same network and
// library: the deployed weights and active index, the down-link set,
// the demand overrides in effect, and the telemetry event counter.
// network and seq tag the snapshot with its shard identity and the
// event-log sequence number it covers.
func (c *Controller) Snapshot(network string, seq uint64) *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &Snapshot{
		Version:  SnapshotVersion,
		Network:  network,
		Seq:      seq,
		Events:   c.sel.Events(),
		Active:   c.active,
		Deployed: c.deployed.Clone(),
		Down:     c.sel.DownLinks(),
	}
	if demD, demT := c.sel.Demands(); demD != nil || demT != nil {
		if demD != nil {
			s.DemD = demD.Clone()
		}
		if demT != nil {
			s.DemT = demT.Clone()
		}
	}
	return s
}

// Restore rebases a freshly built controller onto a snapshot: the
// selector re-derives every candidate score under the snapshot's
// down-link set and demand overrides (bit-identical to having observed
// the original telemetry), and the deployed weights and active index
// are adopted as checkpointed. Restore validates the snapshot against
// the controller's network and library before mutating anything and
// must run before any telemetry is observed.
func (c *Controller) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("fleet: nil snapshot")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sel.Events() != 0 {
		return fmt.Errorf("fleet: Restore on a controller that already consumed telemetry")
	}
	if s.Deployed == nil || s.Deployed.Len() != c.ev.Graph().NumLinks() {
		return fmt.Errorf("fleet: snapshot deployed weights cover %d links, network has %d",
			s.Deployed.Len(), c.ev.Graph().NumLinks())
	}
	if s.Active < -1 || s.Active >= c.lib.Size() {
		return fmt.Errorf("fleet: snapshot active configuration %d out of range [-1,%d)", s.Active, c.lib.Size())
	}
	if s.Active >= 0 && !s.Deployed.Equal(c.lib.Entries[s.Active].W) {
		return fmt.Errorf("fleet: snapshot deployed weights do not match library configuration %d — library changed since the checkpoint", s.Active)
	}
	var demD, demT *traffic.Matrix
	if s.DemD != nil {
		demD = s.DemD.Clone()
	}
	if s.DemT != nil {
		demT = s.DemT.Clone()
	}
	if err := c.sel.Restore(s.Down, demD, demT, s.Events); err != nil {
		return err
	}
	c.deployed = s.Deployed.Clone()
	c.active = s.Active
	return nil
}
