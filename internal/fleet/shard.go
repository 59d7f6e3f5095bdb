package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ctrl"
	"repro/internal/ingest"
	"repro/internal/scenario"
)

// ErrShardDown rejects work aimed at a shard that is rebuilding after a
// crash (or whose rebuild failed). Producers should back off and retry;
// the daemon surfaces it as HTTP 503.
var ErrShardDown = errors.New("fleet: shard down")

// ErrUnknownNetwork rejects telemetry naming a network no shard serves.
var ErrUnknownNetwork = errors.New("fleet: unknown network")

// UnknownNetwork counts a rejected network name in
// fleet_unknown_network_total and returns the ErrUnknownNetwork error
// that names the known networks.
func UnknownNetwork(network string, known []string) error {
	if m := met.Get(); m != nil {
		m.unknown.Inc()
	}
	return fmt.Errorf("%w: %q (have %v)", ErrUnknownNetwork, network, known)
}

// ShardState names a shard's lifecycle state.
type ShardState string

const (
	// StateRunning accepts and delivers telemetry.
	StateRunning ShardState = "running"
	// StatePaused accepts telemetry but holds deliveries (Pause).
	StatePaused ShardState = "paused"
	// StateRestarting is rebuilding from checkpoint after a crash;
	// admissions are rejected with ErrShardDown until it finishes.
	StateRestarting ShardState = "restarting"
	// StateFailed means a post-crash rebuild failed (factory error);
	// the shard stays down.
	StateFailed ShardState = "failed"
	// StateDraining is between Close and the final checkpoint flush.
	StateDraining ShardState = "draining"
	// StateClosed is terminal.
	StateClosed ShardState = "closed"
)

// ShardConfig configures one controller shard.
type ShardConfig struct {
	// Network names the shard; telemetry is routed to it by this name.
	Network string
	// Factory builds the shard's selector from scratch (cold start);
	// crash recovery calls it again and replays the checkpoint on top.
	// It must produce a selector on the same network and library every
	// time, or restored checkpoints will fail validation.
	Factory func() (*ctrl.Selector, error)
	// Dir is the shard's checkpoint directory ("" disables durability:
	// no snapshots, no event log, crash recovery cold-starts).
	Dir string
	// CheckpointInterval is the periodic checkpoint cadence (0 disables
	// the timer; checkpoints then happen only on demand and at Close).
	CheckpointInterval time.Duration
	// Capacity bounds the shard's intake queue in events (see
	// ingest.Config; zero takes the ingest default).
	Capacity int
	// Tap, when set, observes every delivered batch before coalescing
	// (see ingest.Config.Tap). Living in the config, it survives crash
	// rebuilds of the intake queue.
	Tap func(events []scenario.Event)
}

// Shard is one network's ctrl.Selector behind its own intake queue and
// durable checkpoint: admissions append to an event log in admission
// order before they count as accepted, periodic checkpoints fold the
// log into an atomically replaced snapshot, and a delivery panic
// restarts the selector from snapshot+replay without taking down the
// process — the write-ahead log makes the rebuilt selector
// bit-identical to one that never crashed. All methods are safe for
// concurrent use.
type Shard struct {
	cfg   ShardConfig
	store *Store

	// mu serializes admissions (so the event log matches admission
	// order), lifecycle transitions and checkpoints.
	mu          sync.Mutex
	sel         *ctrl.Selector
	intake      *ingest.Intake
	sink        *shardSink
	seq         uint64 // shard-wide sequence of the last admitted event
	state       ShardState
	closed      bool
	crashes     uint64
	checkpoints uint64
	ckptSeq     uint64 // seq covered by the last checkpoint
	coldStart   bool   // last recovery fell back to a cold start
	restoreErr  string // why, when it did
	replayed    int    // events replayed by the last recovery
	logErr      string // last event-log append failure, if any

	hookMu sync.Mutex
	hook   func([]scenario.Event)

	stopTick chan struct{}
	tickDone chan struct{}
}

// NewShard builds the shard, recovering from its checkpoint directory
// when one is configured: snapshot restore + event-log replay on
// success, a cold start (with the damaged files archived and the cause
// recorded in Status) when the checkpoint is corrupt. A Factory error
// is the only construction failure.
func NewShard(cfg ShardConfig) (*Shard, error) {
	if cfg.Network == "" {
		return nil, fmt.Errorf("fleet: shard needs a network name")
	}
	if cfg.Factory == nil {
		return nil, fmt.Errorf("fleet: shard %s needs a controller factory", cfg.Network)
	}
	s := &Shard{cfg: cfg, state: StateRunning}
	if cfg.Dir != "" {
		store, err := OpenStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	if err := s.build(); err != nil {
		if s.store != nil {
			s.store.Close()
		}
		return nil, err
	}
	s.setUp(1)
	if s.store != nil && cfg.CheckpointInterval > 0 {
		s.stopTick = make(chan struct{})
		s.tickDone = make(chan struct{})
		go s.tick()
	}
	return s, nil
}

// build constructs the selector (recovering from the store when
// present) and a fresh sink + intake generation. Callers hold mu or
// have exclusive access.
func (s *Shard) build() error {
	sel, err := s.recover()
	if err != nil {
		return err
	}
	s.sel = sel
	s.sink = &shardSink{s: s, sel: sel}
	s.intake = ingest.New(ingest.Config{Capacity: s.cfg.Capacity, Tap: s.cfg.Tap}, s.sink)
	return nil
}

// recover produces the shard's selector: a plain cold start without a
// store; otherwise snapshot restore + log replay, falling back to a
// cold start on any corruption. Only a Factory error propagates.
func (s *Shard) recover() (*ctrl.Selector, error) {
	if s.store == nil {
		if s.crashes > 0 {
			// A non-durable shard has nothing to restore from: the crash
			// lost all selector state and the rebuild starts from zero.
			s.seq, s.replayed = 0, 0
			s.coldStart = true
			s.restoreErr = "no checkpoint store: crash reset the controller state"
			if m := met.Get(); m != nil {
				m.coldStarts(s.cfg.Network).Inc()
			}
		}
		return s.cfg.Factory()
	}
	s.seq, s.replayed, s.coldStart, s.restoreErr = 0, 0, false, ""
	snap, recs, err := s.store.Load()
	if err != nil {
		return s.recoverCold(err)
	}
	sel, err := s.cfg.Factory()
	if err != nil {
		return nil, err
	}
	if snap != nil {
		if snap.Network != s.cfg.Network {
			return s.recoverCold(fmt.Errorf("%w: snapshot belongs to network %q, not %q", ErrCorrupt, snap.Network, s.cfg.Network))
		}
		if err := sel.Restore(snap.checkpoint()); err != nil {
			return s.recoverCold(fmt.Errorf("%w: %v", ErrCorrupt, err))
		}
		s.seq = snap.Seq
	}
	if len(recs) > 0 {
		events := make([]scenario.Event, len(recs))
		for i, r := range recs {
			events[i], _ = r.Event.event() // decodability validated by Load
		}
		if err := replay(sel, events); err != nil {
			return s.recoverCold(fmt.Errorf("%w: log replay: %v", ErrCorrupt, err))
		}
		s.seq = recs[len(recs)-1].Seq
		s.replayed = len(events)
		if m := met.Get(); m != nil {
			m.replayed(s.cfg.Network).Add(int64(len(events)))
		}
	}
	return sel, nil
}

// recoverCold archives the corrupt checkpoint and builds a fresh
// selector; the shard starts from zero with the cause on record.
func (s *Shard) recoverCold(cause error) (*ctrl.Selector, error) {
	s.seq, s.replayed = 0, 0
	s.coldStart, s.restoreErr = true, cause.Error()
	if err := s.store.Discard(); err != nil {
		return nil, err
	}
	if m := met.Get(); m != nil {
		m.coldStarts(s.cfg.Network).Inc()
	}
	return s.cfg.Factory()
}

// replay folds checkpointed events into a freshly restored selector,
// converting a panic (state so damaged it crashes the selector) into an
// error so recovery can fall back to a cold start.
func replay(sel *ctrl.Selector, events []scenario.Event) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return sel.ObserveBatch(events, 0, 0)
}

// Network returns the shard's network name.
func (s *Shard) Network() string { return s.cfg.Network }

// SetDeliveryHook installs fn to run on every delivered batch, inside
// the shard's panic isolation, before the selector sees the events.
// Tests use it to inject crashes and to observe delivery order; pass
// nil to remove it.
func (s *Shard) SetDeliveryHook(fn func([]scenario.Event)) {
	s.hookMu.Lock()
	s.hook = fn
	s.hookMu.Unlock()
}

func (s *Shard) deliveryHook() func([]scenario.Event) {
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	return s.hook
}

// Enqueue validates and admits a batch whole or not at all, appending
// it to the event log (when durable) in admission order before
// acknowledging. Accepted events are delivered to the selector
// asynchronously, in order; ErrFull sheds the batch under backpressure,
// ErrShardDown rejects it while a crash restart is in progress, and a
// validation error rejects it before admission. lastSeq is the
// shard-wide sequence number of the last admitted event, stable across
// restarts.
func (s *Shard) Enqueue(events []scenario.Event) (lastSeq uint64, err error) {
	if len(events) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateRunning, StatePaused:
	case StateRestarting, StateFailed:
		return 0, fmt.Errorf("%w: %s is %s", ErrShardDown, s.cfg.Network, s.state)
	default:
		return 0, ingest.ErrClosed
	}
	for i := range events {
		if err := s.sel.Validate(events[i]); err != nil {
			return 0, fmt.Errorf("event %d: %w", i, err)
		}
	}
	if err := s.intake.Enqueue(events); err != nil {
		return 0, err
	}
	if s.store != nil {
		if lerr := s.store.Append(s.seq+1, events); lerr != nil {
			// The shard keeps serving — losing durability must not drop
			// live telemetry — but the failure is surfaced in Status and
			// metrics, and the next recovery may cold-start.
			s.logErr = lerr.Error()
			if m := met.Get(); m != nil {
				m.logErrors(s.cfg.Network).Inc()
			}
		}
	}
	s.seq += uint64(len(events))
	if m := met.Get(); m != nil {
		m.events(s.cfg.Network).Add(int64(len(events)))
	}
	return s.seq, nil
}

// Feed admits a batch and waits until it has been delivered — the
// synchronous observe path (episode replay, tests). It fails like
// Enqueue, including ErrFull when the batch exceeds free capacity.
func (s *Shard) Feed(events []scenario.Event) error {
	if _, err := s.Enqueue(events); err != nil {
		return err
	}
	s.Quiesce()
	return nil
}

// Controller returns the shard's live selector for queries and
// migrations (Advise, Plan, Apply, State). It fails with ErrShardDown
// while a crash restart is rebuilding the selector.
func (s *Shard) Controller() (*ctrl.Selector, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateRestarting, StateFailed:
		return nil, fmt.Errorf("%w: %s is %s", ErrShardDown, s.cfg.Network, s.state)
	}
	return s.sel, nil
}

// Pause holds deliveries (queued events accumulate) until Resume.
func (s *Shard) Pause() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateRunning:
		s.intake.Pause()
		s.state = StatePaused
	case StatePaused:
	default:
		return fmt.Errorf("fleet: cannot pause shard %s while %s", s.cfg.Network, s.state)
	}
	return nil
}

// Resume restarts deliveries after Pause.
func (s *Shard) Resume() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StatePaused:
		s.intake.Resume()
		s.state = StateRunning
	case StateRunning:
	default:
		return fmt.Errorf("fleet: cannot resume shard %s while %s", s.cfg.Network, s.state)
	}
	return nil
}

// Quiesce blocks until every accepted event has reached the selector
// — the read-your-writes barrier between Enqueue and Advise/State. On a
// paused shard with queued events it blocks until Resume.
func (s *Shard) Quiesce() {
	s.mu.Lock()
	intake := s.intake
	s.mu.Unlock()
	if intake != nil {
		intake.Quiesce()
	}
}

// Checkpoint quiesces the shard and atomically replaces its snapshot,
// then resets the event log (its records are now folded in). Admissions
// block for the duration. It fails on a shard without a checkpoint
// directory, on a paused shard with queued events (delivering them
// would break the pause), and when a crash lands mid-checkpoint (the
// selector state is suspect; the pre-crash checkpoint plus the log
// still recover everything admitted).
func (s *Shard) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

func (s *Shard) checkpointLocked() error {
	if s.store == nil {
		return fmt.Errorf("fleet: shard %s has no checkpoint directory", s.cfg.Network)
	}
	switch s.state {
	case StateRunning:
	case StatePaused:
		if s.intake.Depth() > 0 {
			return fmt.Errorf("fleet: shard %s is paused with %d queued events; resume before checkpointing", s.cfg.Network, s.intake.Depth())
		}
	default:
		return fmt.Errorf("fleet: cannot checkpoint shard %s while %s", s.cfg.Network, s.state)
	}
	t0 := time.Now()
	s.intake.Quiesce()
	if s.sink.dead.Load() {
		return fmt.Errorf("fleet: shard %s crashed during checkpoint; restart pending", s.cfg.Network)
	}
	if err := s.commitLocked(); err != nil {
		return err
	}
	if m := met.Get(); m != nil {
		m.ckptSec.Observe(time.Since(t0).Seconds())
	}
	return nil
}

// commitLocked commits one checkpoint: it replaces the snapshot with
// the selector's state at the current sequence and resets the event
// log, whose records the snapshot now covers. Callers hold mu with the
// queue drained.
func (s *Shard) commitLocked() error {
	if err := s.store.WriteSnapshot(newSnapshot(s.cfg.Network, s.seq, s.sel.Checkpoint())); err != nil {
		return err
	}
	if err := s.store.ResetLog(); err != nil {
		return err
	}
	s.checkpoints++
	s.ckptSeq = s.seq
	if m := met.Get(); m != nil {
		m.checkpoints(s.cfg.Network).Inc()
	}
	return nil
}

// Kill simulates a delivery crash: the current selector generation is
// condemned and rebuilt from checkpoint synchronously, exactly as a
// panic in the delivery path would (but without waiting for one).
// Operators can use it to force a restore; tests use it to prove
// kill/restore equivalence deterministically.
func (s *Shard) Kill() {
	s.mu.Lock()
	sink := s.sink
	s.mu.Unlock()
	if sink == nil || !sink.dead.CompareAndSwap(false, true) {
		return
	}
	s.restart(sink)
}

// restart retires a condemned selector generation and rebuilds from
// checkpoint: drain the dead intake (its deliveries fail fast), then
// recover a fresh selector + sink + intake under mu. Runs at most
// once per generation (the sink's dead flag gates it).
func (s *Shard) restart(old *shardSink) {
	s.mu.Lock()
	if s.sink != old || s.closed {
		s.mu.Unlock()
		return
	}
	s.state = StateRestarting
	s.crashes++
	intake := s.intake
	s.mu.Unlock()
	if m := met.Get(); m != nil {
		m.restarts(s.cfg.Network).Inc()
	}
	s.setUp(0)
	// Drain the condemned generation: deliveries into a dead sink return
	// immediately, so this only waits out the queue.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	intake.Close(ctx)
	cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sink != old || s.closed {
		return
	}
	if err := s.build(); err != nil {
		s.state = StateFailed
		s.restoreErr = err.Error()
		return
	}
	s.state = StateRunning
	s.setUp(1)
}

// tick runs periodic checkpoints until Close.
func (s *Shard) tick() {
	defer close(s.tickDone)
	t := time.NewTicker(s.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.Checkpoint(); err != nil {
				if m := met.Get(); m != nil {
					m.ckptErrors(s.cfg.Network).Inc()
				}
			}
		case <-s.stopTick:
			return
		}
	}
}

// ShardStatus reports one shard's lifecycle and durability state.
type ShardStatus struct {
	Network           string
	State             ShardState
	Seq               uint64 // last admitted event (shard-wide, survives restarts)
	Crashes           uint64
	Checkpoints       uint64
	LastCheckpointSeq uint64
	Replayed          int    // events replayed by the last recovery
	ColdStart         bool   // last recovery fell back to a cold start
	RestoreError      string // why, when it did
	LogError          string // last event-log append failure
	Intake            ingest.Stats
}

// Status snapshots the shard's lifecycle and durability state.
func (s *Shard) Status() ShardStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ShardStatus{
		Network:           s.cfg.Network,
		State:             s.state,
		Seq:               s.seq,
		Crashes:           s.crashes,
		Checkpoints:       s.checkpoints,
		LastCheckpointSeq: s.ckptSeq,
		Replayed:          s.replayed,
		ColdStart:         s.coldStart,
		RestoreError:      s.restoreErr,
		LogError:          s.logErr,
	}
	if s.intake != nil {
		st.Intake = s.intake.Stats()
	}
	return st
}

// RefreshMetrics updates the shard's intake gauges; the daemon calls it
// at metrics scrape.
func (s *Shard) RefreshMetrics() {
	s.mu.Lock()
	intake := s.intake
	s.mu.Unlock()
	if intake != nil {
		intake.UpdateGauges()
	}
}

// Close stops admissions, drains everything already accepted, flushes a
// final checkpoint (when durable, the selector is healthy and the
// drain delivered everything), and releases the store. A crashed shard,
// or one whose drain ctx cut short, skips the final checkpoint — its
// last snapshot plus the event log already cover every admitted event,
// and the next boot replays them.
func (s *Shard) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	healthy := s.state == StateRunning || s.state == StatePaused
	s.state = StateDraining
	if s.stopTick != nil {
		close(s.stopTick)
	}
	intake, sink := s.intake, s.sink
	s.mu.Unlock()
	if s.tickDone != nil {
		<-s.tickDone
	}
	var err error
	if intake != nil {
		err = intake.Close(ctx)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store != nil {
		if err == nil && healthy && sink != nil && !sink.dead.Load() {
			err = s.commitLocked()
		}
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	s.state = StateClosed
	s.setUp(0)
	return err
}

func (s *Shard) setUp(v float64) {
	if m := met.Get(); m != nil {
		m.up(s.cfg.Network).Set(v)
	}
}

// shardSink is one selector generation's delivery adapter: it runs
// the test hook and the selector's batch observe inside a panic
// barrier. A panic condemns the generation (dead flag) — subsequent
// deliveries fail fast so the queue drains — and triggers an
// asynchronous restart from checkpoint. The restart goroutine must not
// be synchronous here: a checkpoint may be holding the shard mutex
// while it waits for this very queue to drain.
type shardSink struct {
	s    *Shard
	sel  *ctrl.Selector
	dead atomic.Bool
}

func (k *shardSink) ObserveBatch(events []scenario.Event, trace, parent uint64) (err error) {
	if k.dead.Load() {
		return fmt.Errorf("%w: %s delivery dropped pending restart (events are in the log)", ErrShardDown, k.s.cfg.Network)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fleet: shard %s delivery panic: %v", k.s.cfg.Network, r)
			if k.dead.CompareAndSwap(false, true) {
				go k.s.restart(k)
			}
		}
	}()
	if h := k.s.deliveryHook(); h != nil {
		h(events)
	}
	return k.sel.ObserveBatch(events, trace, parent)
}
