package ctrl

import (
	"fmt"

	"repro/internal/obsv"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// Migration is a bounded-change migration of the deployed weights
// toward a library configuration, computed by Selector.Plan and
// committed by Selector.Apply.
type Migration struct {
	// Target and TargetName identify the destination configuration.
	Target     int
	TargetName string
	// P carries the planner's steps, endpoint evaluations and
	// completeness verdict.
	P *Plan

	// base is the deployed weight setting the plan was computed from;
	// Apply refuses a migration whose base no longer matches (stale
	// plan).
	base *routing.WeightSetting
}

// Plan computes a bounded-change migration from the deployed weights to
// library configuration target under the current conditions. At most
// maxChanges links are rewritten (≤ 0: unbounded); the apply order
// keeps every intermediate state loop-free and within the SLA envelope
// of the endpoints. When the budget binds, the plan is a stage:
// applying it and re-planning later continues the migration.
func (s *Selector) Plan(target, maxChanges int) (*Migration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if target < 0 || target >= s.lib.Size() {
		return nil, fmt.Errorf("ctrl: configuration %d out of range [0,%d)", target, s.lib.Size())
	}
	p, err := PlanMigration(s.ev, s.deployed, s.lib.Entries[target].W, s.mask(), s.demD, s.demT, PlanConfig{
		MaxChanges: maxChanges,
		// Bounded-change migration under live failures may have to pass
		// through mildly degraded states; tolerate a small overshoot
		// before declaring a step infeasible.
		ViolationSlack: 2,
		// Hang the planner's span off the trace of the telemetry event
		// that prompted this migration.
		Trace:  s.lastTrace,
		Parent: s.lastRoot,
	})
	if err != nil {
		return nil, err
	}
	return &Migration{
		Target:     target,
		TargetName: s.lib.Entries[target].Name,
		P:          p,
		base:       s.deployed.Clone(),
	}, nil
}

// Apply commits a migration's rewrites to the deployed weights. A
// complete plan lands exactly on its target configuration; a partial
// plan leaves the selector mid-migration (Active reports -1) until a
// follow-up plan finishes the job. A migration whose base no longer
// matches the deployed weights — another one was applied since it was
// computed, so its verified intermediate states no longer apply — is
// rejected, as is one not produced by Plan. Validation happens before
// any mutation: a rejected migration changes nothing.
func (s *Selector) Apply(mig *Migration) error {
	if mig == nil {
		return fmt.Errorf("ctrl: nil plan")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if mig.base == nil || mig.P == nil {
		return fmt.Errorf("ctrl: plan was not produced by Selector.Plan")
	}
	if !s.deployed.Equal(mig.base) {
		return fmt.Errorf("ctrl: stale plan: deployed weights changed since it was computed")
	}
	for _, st := range mig.P.Steps {
		if st.Link < 0 || st.Link >= s.deployed.Len() {
			return fmt.Errorf("ctrl: plan step link %d out of range", st.Link)
		}
	}
	sp := obsv.Default().Spans().StartAt("apply", s.lastTrace, s.lastRoot)
	sp.SetAttr("steps", int64(len(mig.P.Steps)))
	for _, st := range mig.P.Steps {
		s.deployed.Set(st.Link, st.Delay, st.Throughput)
	}
	sp.End()
	s.active = -1
	for i, e := range s.lib.Entries {
		if s.deployed.Equal(e.W) {
			s.active = i
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

// State is a snapshot of a selector's view of its network.
type State struct {
	// Active and ActiveName identify the deployed configuration; Active
	// is -1 (and ActiveName "partial-migration") mid-migration.
	Active     int
	ActiveName string
	// Deployed evaluates the deployed weights under current conditions.
	Deployed routing.Result
	// DownLinks lists the links currently observed down, ascending;
	// Events counts the effective telemetry events consumed.
	DownLinks []int
	Events    int
	// Configs scores every library configuration under the current
	// conditions, in library order.
	Configs []ConfigScore
}

// State snapshots the selector's view of the network.
func (s *Selector) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := State{
		Active:     s.active,
		ActiveName: "partial-migration",
		DownLinks:  s.downLinks(),
		Events:     s.events,
	}
	if s.active >= 0 {
		// Deployed weights equal a library entry, whose bit-exact score
		// the candidate session already caches.
		st.ActiveName = s.lib.Entries[s.active].Name
		st.Deployed = s.sessions[s.active].Result()
	} else {
		s.ev.EvaluateDemands(s.deployed, s.mask(), -1, s.demD, s.demT, &st.Deployed)
	}
	for i, e := range s.lib.Entries {
		st.Configs = append(st.Configs, ConfigScore{Name: e.Name, Result: s.sessions[i].Result()})
	}
	return st
}

// Checkpoint is a selector's restorable state: restored into a fresh
// selector on the same network and library, it reproduces the original
// bit for bit. internal/fleet stores it as the shard snapshot.
type Checkpoint struct {
	// Events is the telemetry event counter.
	Events int
	// Active is the deployed library configuration (-1 mid-migration);
	// Deployed the deployed weight setting.
	Active   int
	Deployed *routing.WeightSetting
	// Down lists the directed links observed down, ascending.
	Down []int
	// DemD and DemT are the per-class demand overrides in effect (nil =
	// base traffic of that class).
	DemD, DemT *traffic.Matrix
}

// Checkpoint hands over the selector's restorable state as private
// copies.
func (s *Selector) Checkpoint() Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := Checkpoint{
		Events:   s.events,
		Active:   s.active,
		Deployed: s.deployed.Clone(),
		Down:     s.downLinks(),
	}
	if s.demD != nil {
		c.DemD = s.demD.Clone()
	}
	if s.demT != nil {
		c.DemT = s.demT.Clone()
	}
	return c
}

// Restore rebases a freshly built selector onto a checkpoint: the
// listed links go down and the demand overrides take effect through
// the same incremental session paths a live telemetry stream takes, so
// every candidate score is bit-identical to that of the selector that
// observed the original events; the event counter and the deployment
// are adopted as checkpointed. Restore validates the whole checkpoint
// against the network and library before mutating anything, and fails
// on a selector that already consumed telemetry. The selector takes
// ownership of the checkpoint's weights and matrices.
func (s *Selector) Restore(c Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.events != 0 || s.ndown != 0 || s.demD != nil || s.demT != nil {
		return fmt.Errorf("ctrl: Restore on a selector that already consumed telemetry")
	}
	if c.Events < 0 {
		return fmt.Errorf("ctrl: negative checkpoint event count %d", c.Events)
	}
	m := s.ev.Graph().NumLinks()
	if c.Deployed == nil || c.Deployed.Len() != m {
		return fmt.Errorf("ctrl: checkpoint deployed weights do not cover the network's %d links", m)
	}
	if c.Active < -1 || c.Active >= s.lib.Size() {
		return fmt.Errorf("ctrl: checkpoint active configuration %d out of range [-1,%d)", c.Active, s.lib.Size())
	}
	if c.Active >= 0 && !c.Deployed.Equal(s.lib.Entries[c.Active].W) {
		return fmt.Errorf("ctrl: checkpoint deployed weights do not match library configuration %d — library changed since the checkpoint", c.Active)
	}
	for _, li := range c.Down {
		if li < 0 || li >= m {
			return fmt.Errorf("ctrl: checkpoint down link %d out of range [0,%d)", li, m)
		}
	}
	n := s.ev.Graph().NumNodes()
	for _, dem := range []*traffic.Matrix{c.DemD, c.DemT} {
		if dem == nil {
			continue
		}
		if dem.Size() != n {
			return fmt.Errorf("ctrl: checkpoint demand matrix size %d does not match %d nodes", dem.Size(), n)
		}
		if err := dem.Validate(); err != nil {
			return fmt.Errorf("ctrl: checkpoint %w", err)
		}
	}
	changes := make([]routing.LinkStateChange, 0, len(c.Down))
	for _, li := range c.Down {
		if s.down[li] {
			continue // duplicate in the checkpoint: one transition suffices
		}
		s.down[li] = true
		s.ndown++
		changes = append(changes, routing.LinkStateChange{Link: li, Up: false})
	}
	if len(changes) > 0 {
		s.each(func(ses *routing.Session) { ses.SetLinkStates(changes) })
	}
	if c.DemD != nil || c.DemT != nil {
		// Mirror the dense-event path: sessions alias the matrices passed
		// to SetDemands, so the selector must not claim in-place mutation
		// rights over them — a later delta clones first (clone-on-write),
		// exactly as after an EventDemand.
		s.demD, s.demT = c.DemD, c.DemT
		s.ownsDemD, s.ownsDemT = false, false
		s.each(func(ses *routing.Session) { ses.SetDemands(c.DemD, c.DemT) })
	}
	s.events = c.Events
	s.deployed = c.Deployed
	s.active = c.Active
	return nil
}
