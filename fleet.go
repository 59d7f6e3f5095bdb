package repro

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"time"

	"repro/internal/ctrl"
	"repro/internal/fleet"
	"repro/internal/par"
	"repro/internal/scenario"
)

// ErrShardDown is returned for work aimed at a fleet shard that is
// rebuilding after a crash; producers should back off and retry
// (cmd/dtrd surfaces it as HTTP 503).
var ErrShardDown = fleet.ErrShardDown

// ErrUnknownNetwork rejects telemetry naming a network no fleet member
// serves. The whole batch is rejected before any admission.
var ErrUnknownNetwork = fleet.ErrUnknownNetwork

// FleetMember declares one network of a Fleet: its name (the routing
// key carried in ControlEvent.Network), the network itself, and the
// configuration library its controller serves.
type FleetMember struct {
	Name    string
	Net     *Network
	Library *Library
	// IntakeTap, when set, observes the labels of every batch delivered
	// to this member's shard — the audit hook the no-lost-events drain
	// test uses. It sees every accepted event before coalescing, outside
	// the shard's panic barrier, and survives crash rebuilds of the
	// shard.
	IntakeTap func(labels []string)
}

// FleetOptions configures a Fleet.
type FleetOptions struct {
	// CheckpointDir enables durable checkpointing: each member gets
	// <dir>/<name>/ holding an atomically replaced snapshot and an
	// append-only event log, written ahead of admission and replayed on
	// restart. Empty disables durability (crashes cold-start).
	CheckpointDir string
	// CheckpointInterval is the periodic checkpoint cadence per shard
	// (0: only on demand, at Close, and on SIGTERM drain in cmd/dtrd).
	CheckpointInterval time.Duration
	// IntakeCapacity bounds every member's intake queue, in events (not
	// batches); an Enqueue that would exceed it fails whole with
	// ErrIntakeFull. Default 4096.
	IntakeCapacity int
}

type fleetMember struct {
	name string
	net  *Network
	lib  *Library
	sh   *fleet.Shard
}

// Fleet is a sharded multi-network control plane: it owns one
// controller shard per member network and routes telemetry by the
// events' Network field. Shards run independently — each has its own
// intake queue, checkpoint and crash recovery; a panic in one never
// touches the others — and an aggregated view is served by FleetState.
// All methods are safe for concurrent use.
type Fleet struct {
	members []*fleetMember // configuration order; the first is the default
	byName  map[string]*fleetMember
}

var fleetNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// NewFleet builds one controller shard per member, restoring each from
// its checkpoint directory when opts.CheckpointDir is set (snapshot +
// event-log replay; corrupt checkpoints are archived and the shard
// cold-starts, with the cause reported in FleetState). The first member
// is the fleet's default network: events with an empty Network field
// route to it. Construction is all-or-nothing: if a shard fails to
// build, the ones already built are closed.
func NewFleet(members []FleetMember, opts FleetOptions) (*Fleet, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("repro: fleet needs at least one member")
	}
	f := &Fleet{byName: make(map[string]*fleetMember, len(members))}
	cfgs := make([]fleet.ShardConfig, 0, len(members))
	for i, m := range members {
		if !fleetNameRe.MatchString(m.Name) {
			return nil, fmt.Errorf("repro: member %d has invalid network name %q", i, m.Name)
		}
		if _, dup := f.byName[m.Name]; dup {
			return nil, fmt.Errorf("repro: duplicate network name %q", m.Name)
		}
		if m.Net == nil || m.Library == nil {
			return nil, fmt.Errorf("repro: member %q needs a network and a library", m.Name)
		}
		if m.Library.net != m.Net {
			return nil, fmt.Errorf("repro: member %q: library was built for a different network", m.Name)
		}
		net, lib := m.Net, m.Library
		dir := ""
		if opts.CheckpointDir != "" {
			dir = filepath.Join(opts.CheckpointDir, m.Name)
		}
		var tap func(events []scenario.Event)
		if m.IntakeTap != nil {
			fn := m.IntakeTap
			tap = func(events []scenario.Event) {
				labels := make([]string, len(events))
				for i := range events {
					labels[i] = events[i].Label
				}
				fn(labels)
			}
		}
		cfgs = append(cfgs, fleet.ShardConfig{
			Network:            m.Name,
			Factory:            func() (*ctrl.Selector, error) { return net.newCore(lib) },
			Tap:                tap,
			Dir:                dir,
			CheckpointInterval: opts.CheckpointInterval,
			Capacity:           opts.IntakeCapacity,
		})
		fm := &fleetMember{name: m.Name, net: net, lib: lib}
		f.members = append(f.members, fm)
		f.byName[m.Name] = fm
	}
	fleet.Register(f.Networks())
	for i, m := range f.members {
		sh, err := fleet.NewShard(cfgs[i])
		if err != nil {
			f.members = f.members[:i]
			f.Close(context.Background())
			return nil, fmt.Errorf("fleet: shard %s: %w", m.name, err)
		}
		m.sh = sh
	}
	return f, nil
}

// Networks lists the member networks in configuration order; the first
// is the default network.
func (f *Fleet) Networks() []string {
	out := make([]string, len(f.members))
	for i, m := range f.members {
		out[i] = m.name
	}
	return out
}

// DefaultNetwork returns the name events with an empty Network route to.
func (f *Fleet) DefaultNetwork() string { return f.members[0].name }

// Library returns the named network's configuration library ("" = the
// default network).
func (f *Fleet) Library(network string) (*Library, error) {
	m, err := f.resolve(network)
	if err != nil {
		return nil, err
	}
	return m.lib, nil
}

// resolve maps a network name ("" = default) to its member; an unknown
// name is counted and rejected with an error naming the known networks.
func (f *Fleet) resolve(network string) (*fleetMember, error) {
	if network == "" {
		return f.members[0], nil
	}
	m, ok := f.byName[network]
	if !ok {
		return nil, fleet.UnknownNetwork(network, f.Networks())
	}
	return m, nil
}

// FleetIntakeResult reports a fleet Enqueue: events admitted across all
// shards, the per-network sequence number of the last admitted event,
// and the networks whose sub-batch was shed (queue full) or rejected
// because the shard was down (restarting after a crash).
type FleetIntakeResult struct {
	Accepted int
	LastSeq  map[string]uint64
	Shed     []string
	Down     []string
}

// Enqueue splits a telemetry batch by each event's Network field ("" =
// the default network) and admits each sub-batch into its shard's
// intake queue. An unknown network or a malformed event rejects the
// whole batch before any admission. Admission itself is all-or-nothing
// per shard, not across shards: a full queue sheds only that network's
// sub-batch (the result lists it in Shed and the error is
// ErrIntakeFull, surfaced as 429 + Retry-After), and a restarting
// shard's sub-batch is rejected with ErrShardDown (503).
func (f *Fleet) Enqueue(events []ControlEvent) (FleetIntakeResult, error) {
	res := FleetIntakeResult{LastSeq: make(map[string]uint64)}
	if len(events) == 0 {
		return res, nil
	}
	type group struct {
		m   *fleetMember
		evs []scenario.Event
	}
	byMember := make(map[*fleetMember]*group)
	var groups []*group
	for i, e := range events {
		m, err := f.resolve(e.Network)
		if err != nil {
			return res, fmt.Errorf("event %d: %w", i, err)
		}
		ev, err := m.net.toEvent(e)
		if err != nil {
			return res, fmt.Errorf("event %d: %w", i, err)
		}
		g := byMember[m]
		if g == nil {
			g = &group{m: m}
			byMember[m] = g
			groups = append(groups, g)
		}
		g.evs = append(g.evs, ev)
	}
	var full, down bool
	for _, g := range groups {
		seq, err := g.m.sh.Enqueue(g.evs)
		switch {
		case err == nil:
			res.Accepted += len(g.evs)
			res.LastSeq[g.m.name] = seq
		case errors.Is(err, ErrIntakeFull):
			res.Shed = append(res.Shed, g.m.name)
			full = true
		case errors.Is(err, ErrShardDown):
			res.Down = append(res.Down, g.m.name)
			down = true
		default:
			return res, fmt.Errorf("network %s: %w", g.m.name, err)
		}
	}
	if full {
		return res, ErrIntakeFull
	}
	if down {
		return res, ErrShardDown
	}
	return res, nil
}

// controller returns the live controller core of a network's shard.
func (f *Fleet) controller(network string) (*ctrl.Selector, error) {
	m, err := f.resolve(network)
	if err != nil {
		return nil, err
	}
	return m.sh.Controller()
}

// Advise scores the named network's configurations under its current
// conditions and returns the best ("" = the default network).
func (f *Fleet) Advise(network string) (Advice, error) {
	c, err := f.controller(network)
	if err != nil {
		return Advice{}, err
	}
	return adviceFrom(c.Advise()), nil
}

// Plan computes a bounded-change migration on the named network, as
// Controller.Plan ("" = the default network).
func (f *Fleet) Plan(network string, target, maxChanges int) (*MigrationPlan, error) {
	c, err := f.controller(network)
	if err != nil {
		return nil, err
	}
	p, err := c.Plan(target, maxChanges)
	if err != nil {
		return nil, err
	}
	return planFrom(p), nil
}

// Apply commits a plan on the named network, as Controller.Apply.
func (f *Fleet) Apply(network string, plan *MigrationPlan) error {
	c, err := f.controller(network)
	if err != nil {
		return err
	}
	if plan == nil {
		return fmt.Errorf("repro: nil plan")
	}
	if plan.p == nil {
		return fmt.Errorf("repro: plan was not produced by Plan")
	}
	return c.Apply(plan.p)
}

// State snapshots the named network's controller ("" = the default
// network).
func (f *Fleet) State(network string) (ControllerState, error) {
	c, err := f.controller(network)
	if err != nil {
		return ControllerState{}, err
	}
	return stateFrom(c.State()), nil
}

// ReplayEpisode replays scenario i of the set as telemetry on the named
// network — through the shard's logged admission path, so a later crash
// recovery replays it too — and waits for delivery. The set must have
// been built from the member's network.
func (f *Fleet) ReplayEpisode(network string, set *ScenarioSet, i int, onset bool) error {
	m, err := f.resolve(network)
	if err != nil {
		return err
	}
	if set == nil || set.net != m.net {
		return fmt.Errorf("repro: scenario set was built from a different network")
	}
	if i < 0 || i >= set.Size() {
		return fmt.Errorf("repro: episode %d out of range [0,%d)", i, set.Size())
	}
	ep := scenario.EpisodeAt(m.net.g, set.set, i)
	events := ep.Onset
	if !onset {
		events = ep.Recovery
	}
	return m.sh.Feed(events)
}

// Pause holds the named network's deliveries until Resume ("" = the
// default network). Queued events accumulate.
func (f *Fleet) Pause(network string) error {
	m, err := f.resolve(network)
	if err != nil {
		return err
	}
	return m.sh.Pause()
}

// PauseAll pauses every shard.
func (f *Fleet) PauseAll() error { return f.eachShard((*fleet.Shard).Pause) }

// Resume restarts the named network's deliveries after Pause.
func (f *Fleet) Resume(network string) error {
	m, err := f.resolve(network)
	if err != nil {
		return err
	}
	return m.sh.Resume()
}

// ResumeAll resumes every shard.
func (f *Fleet) ResumeAll() error { return f.eachShard((*fleet.Shard).Resume) }

// Quiesce blocks until every event accepted by the named network's
// shard has reached its controller ("" = the default network).
func (f *Fleet) Quiesce(network string) error {
	m, err := f.resolve(network)
	if err != nil {
		return err
	}
	m.sh.Quiesce()
	return nil
}

// QuiesceAll quiesces every shard.
func (f *Fleet) QuiesceAll() {
	for _, m := range f.members {
		m.sh.Quiesce()
	}
}

// Checkpoint quiesces the named network's shard and atomically replaces
// its snapshot ("" = the default network). Fails without a
// CheckpointDir.
func (f *Fleet) Checkpoint(network string) error {
	m, err := f.resolve(network)
	if err != nil {
		return err
	}
	return m.sh.Checkpoint()
}

// CheckpointAll checkpoints every shard, continuing past failures and
// returning them joined.
func (f *Fleet) CheckpointAll() error { return f.eachShard((*fleet.Shard).Checkpoint) }

// Kill condemns the named network's controller and rebuilds it from its
// checkpoint synchronously, exactly as a delivery panic would — a
// forced restore drill ("" = the default network). Without a
// CheckpointDir the shard cold-starts.
func (f *Fleet) Kill(network string) error {
	m, err := f.resolve(network)
	if err != nil {
		return err
	}
	m.sh.Kill()
	return nil
}

func (f *Fleet) eachShard(op func(*fleet.Shard) error) error {
	var errs []error
	for _, m := range f.members {
		if err := op(m.sh); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// FleetShardState is one shard's slice of the aggregated fleet view:
// lifecycle and durability state plus, when the shard is up, its
// controller's deployed configuration and score.
type FleetShardState struct {
	// Network names the shard; State is its lifecycle state (running,
	// paused, restarting, failed, draining, closed).
	Network string
	State   string
	// Seq is the shard-wide sequence of the last admitted event (stable
	// across restarts); Intake the queue's admission ledger.
	Seq    uint64
	Intake IntakeStats
	// Crashes counts delivery panics and kills; Checkpoints the commits,
	// LastCheckpointSeq the sequence the latest one covers. Replayed,
	// ColdStart and RestoreError describe the most recent recovery;
	// LogError surfaces a degraded event log.
	Crashes           uint64
	Checkpoints       uint64
	LastCheckpointSeq uint64
	Replayed          int
	ColdStart         bool
	RestoreError      string `json:",omitempty"`
	LogError          string `json:",omitempty"`
	// Up reports whether the controller is serving; when true, Events,
	// Active, ActiveName, DownLinks and Deployed mirror its state.
	Up         bool
	Events     int
	Active     int
	ActiveName string
	DownLinks  []int
	Deployed   Evaluation
}

// FleetState is the aggregated fleet view: every shard's state plus
// rolled-up totals.
type FleetState struct {
	Networks []string
	Default  string
	Shards   []FleetShardState
	// TotalAccepted/TotalShed/TotalDelivered roll up the intake ledgers;
	// TotalCrashes and TotalCheckpoints the lifecycle counters.
	TotalAccepted    uint64
	TotalShed        uint64
	TotalDelivered   uint64
	TotalCrashes     uint64
	TotalCheckpoints uint64
}

// FleetState snapshots every shard and the rolled-up totals.
func (f *Fleet) FleetState() FleetState {
	out := FleetState{Networks: f.Networks(), Default: f.DefaultNetwork()}
	for _, m := range f.members {
		st := m.sh.Status()
		s := FleetShardState{
			Network:           st.Network,
			State:             string(st.State),
			Seq:               st.Seq,
			Intake:            IntakeStats{Accepted: st.Intake.Accepted, Shed: st.Intake.Shed, Delivered: st.Intake.Delivered, Depth: st.Intake.Depth},
			Crashes:           st.Crashes,
			Checkpoints:       st.Checkpoints,
			LastCheckpointSeq: st.LastCheckpointSeq,
			Replayed:          st.Replayed,
			ColdStart:         st.ColdStart,
			RestoreError:      st.RestoreError,
			LogError:          st.LogError,
		}
		if c, err := m.sh.Controller(); err == nil {
			cs := c.State()
			s.Up = true
			s.Events = cs.Events
			s.Active = cs.Active
			s.ActiveName = cs.ActiveName
			s.DownLinks = cs.DownLinks
			s.Deployed = toEval(&cs.Deployed)
		}
		out.Shards = append(out.Shards, s)
		out.TotalAccepted += st.Intake.Accepted
		out.TotalShed += st.Intake.Shed
		out.TotalDelivered += st.Intake.Delivered
		out.TotalCrashes += st.Crashes
		out.TotalCheckpoints += st.Checkpoints
	}
	return out
}

// RefreshMetrics updates every shard's intake gauges; the daemon calls
// it at metrics scrape.
func (f *Fleet) RefreshMetrics() {
	for _, m := range f.members {
		m.sh.RefreshMetrics()
	}
}

// Close stops admissions on every shard, drains everything already
// accepted, flushes a final checkpoint per durable healthy shard, and
// waits for completion or ctx to expire — the fleet half of the
// daemon's two-stage SIGTERM drain. Shards drain concurrently; their
// errors come back joined.
func (f *Fleet) Close(ctx context.Context) error {
	errs := make([]error, len(f.members))
	par.Do(len(f.members), len(f.members), func(_, i int) { errs[i] = f.members[i].sh.Close(ctx) })
	return errors.Join(errs...)
}
