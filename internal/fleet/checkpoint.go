package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/ctrl"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// SnapshotVersion is the checkpoint format version this build writes
// and accepts. A snapshot or event log carrying any other version fails
// closed with ErrCorrupt and the shard falls back to a cold start;
// there is no silent cross-version migration.
const SnapshotVersion = 1

// ErrCorrupt marks an unusable checkpoint: a truncated or unparseable
// snapshot, a torn or garbled event-log tail, a sequence gap between
// snapshot and log, a format-version mismatch, or a snapshot another
// network's shard wrote. Recovery code treats
// every ErrCorrupt identically — discard the checkpoint and cold-start —
// so a damaged file can never half-restore a shard.
var ErrCorrupt = errors.New("fleet: corrupt checkpoint")

// Snapshot is the on-disk form of one shard's ctrl.Checkpoint:
// everything needed to rebuild a bit-identical selector on the same
// network and library, tagged with the shard's identity and log
// position. Weights are int32 and demands are float64 — both round-trip
// exactly through JSON — so restoring a snapshot and replaying the
// event log after it reproduces the live selector bit for bit.
type Snapshot struct {
	// Version is the checkpoint format version (SnapshotVersion).
	Version int `json:"version"`
	// Network names the shard the snapshot belongs to.
	Network string `json:"network"`
	// Seq is the event-log sequence number the snapshot covers: log
	// records with seq ≤ Seq are already folded in, replay starts at
	// Seq+1.
	Seq uint64 `json:"seq"`
	// Events is the selector's telemetry event counter.
	Events int `json:"events"`
	// Active is the deployed library configuration (-1 mid-migration);
	// Deployed the deployed weight setting.
	Active   int                    `json:"active"`
	Deployed *routing.WeightSetting `json:"deployed"`
	// Down lists the directed links observed down, ascending.
	Down []int `json:"down,omitempty"`
	// DemD and DemT are the per-class demand overrides in effect (nil =
	// base traffic of that class).
	DemD *traffic.Matrix `json:"demd,omitempty"`
	DemT *traffic.Matrix `json:"demt,omitempty"`
}

// newSnapshot tags a selector checkpoint with the shard's network and
// the event-log sequence number it covers.
func newSnapshot(network string, seq uint64, c ctrl.Checkpoint) *Snapshot {
	return &Snapshot{
		Version:  SnapshotVersion,
		Network:  network,
		Seq:      seq,
		Events:   c.Events,
		Active:   c.Active,
		Deployed: c.Deployed,
		Down:     c.Down,
		DemD:     c.DemD,
		DemT:     c.DemT,
	}
}

// checkpoint returns the selector state the snapshot records.
func (s *Snapshot) checkpoint() ctrl.Checkpoint {
	return ctrl.Checkpoint{
		Events:   s.Events,
		Active:   s.Active,
		Deployed: s.Deployed,
		Down:     s.Down,
		DemD:     s.DemD,
		DemT:     s.DemT,
	}
}

// wireEvent is the event-log form of a scenario.Event, using the same
// kind names as the HTTP wire format.
type wireEvent struct {
	Kind   string          `json:"kind"`
	Link   int             `json:"link,omitempty"`
	DemD   *traffic.Matrix `json:"demd,omitempty"`
	DemT   *traffic.Matrix `json:"demt,omitempty"`
	DeltaD *traffic.Delta  `json:"deltad,omitempty"`
	DeltaT *traffic.Delta  `json:"deltat,omitempty"`
	Label  string          `json:"label,omitempty"`
}

func encodeEvent(e scenario.Event) wireEvent {
	return wireEvent{
		Kind:   e.Kind.String(),
		Link:   e.Link,
		DemD:   e.DemD,
		DemT:   e.DemT,
		DeltaD: e.DeltaD,
		DeltaT: e.DeltaT,
		Label:  e.Label,
	}
}

func (w wireEvent) event() (scenario.Event, error) {
	e := scenario.Event{Link: w.Link, DemD: w.DemD, DemT: w.DemT, DeltaD: w.DeltaD, DeltaT: w.DeltaT, Label: w.Label}
	switch w.Kind {
	case scenario.EventLinkDown.String():
		e.Kind = scenario.EventLinkDown
	case scenario.EventLinkUp.String():
		e.Kind = scenario.EventLinkUp
	case scenario.EventDemand.String():
		e.Kind = scenario.EventDemand
	case scenario.EventDemandDelta.String():
		e.Kind = scenario.EventDemandDelta
	default:
		return scenario.Event{}, fmt.Errorf("unknown event kind %q", w.Kind)
	}
	return e, nil
}

// LogRecord is one replayable event-log entry: the shard-wide sequence
// number of the event and the event itself.
type LogRecord struct {
	Seq   uint64    `json:"seq"`
	Event wireEvent `json:"event"`
}

const (
	snapshotFile = "snapshot.json"
	eventLogFile = "events.log"
)

// Store is the durable checkpoint of one shard: an atomically written
// snapshot plus an append-only JSONL event log, both under one
// directory. Writes survive process crashes (the snapshot is written to
// a temp file and renamed; the log is append-only, so a torn final line
// is detectable and everything before it is intact). The store does not
// fsync — an OS crash can lose the tail of the log, which recovery
// reports as a torn tail and handles by cold start.
type Store struct {
	dir      string
	mu       sync.Mutex
	log      *os.File
	snapPath string
	logPath  string
}

// OpenStore opens (creating if necessary) the checkpoint directory of
// one shard and its append-only event log.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: create checkpoint dir: %w", err)
	}
	st := &Store{
		dir:      dir,
		snapPath: filepath.Join(dir, snapshotFile),
		logPath:  filepath.Join(dir, eventLogFile),
	}
	if err := st.openLog(); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *Store) openLog() error {
	f, err := os.OpenFile(st.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("fleet: open event log: %w", err)
	}
	st.log = f
	return nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// WriteSnapshot atomically replaces the snapshot: the new file is fully
// written to a temp name and renamed into place, so a crash mid-write
// leaves the previous snapshot intact.
func (st *Store) WriteSnapshot(s *Snapshot) error {
	data, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("fleet: encode snapshot: %w", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	tmp := st.snapPath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("fleet: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, st.snapPath); err != nil {
		return fmt.Errorf("fleet: commit snapshot: %w", err)
	}
	return nil
}

// Append logs a batch of admitted events, one JSONL record per event,
// with sequence numbers seq, seq+1, …. The whole batch reaches the OS
// in one write, in admission order, so the log replays in exactly the
// order the intake delivered.
func (st *Store) Append(seq uint64, events []scenario.Event) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, e := range events {
		if err := enc.Encode(LogRecord{Seq: seq + uint64(i), Event: encodeEvent(e)}); err != nil {
			return fmt.Errorf("fleet: encode event log record: %w", err)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.log == nil {
		return fmt.Errorf("fleet: event log closed")
	}
	if _, err := st.log.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("fleet: append event log: %w", err)
	}
	return nil
}

// ResetLog truncates the event log. Checkpointing calls it immediately
// after WriteSnapshot succeeds: everything logged so far is folded into
// the snapshot, so replay restarts empty from the snapshot's Seq.
func (st *Store) ResetLog() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.log != nil {
		st.log.Close()
	}
	if err := os.Remove(st.logPath); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("fleet: reset event log: %w", err)
	}
	return st.openLog()
}

// Load reads and validates the checkpoint: the snapshot (nil when none
// was ever written) and the event-log records that follow it, replay-
// ready. Any damage — truncated or unparseable snapshot, version
// mismatch, torn or garbled log line, non-contiguous sequence numbers,
// a log that does not connect to the snapshot — returns an error
// wrapping ErrCorrupt and no partial data: recovery either gets the
// whole checkpoint or none of it.
func (st *Store) Load() (*Snapshot, []LogRecord, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var snap *Snapshot
	data, err := os.ReadFile(st.snapPath)
	switch {
	case os.IsNotExist(err):
		// No snapshot yet: a log, if present, must start at seq 1.
	case err != nil:
		return nil, nil, fmt.Errorf("fleet: read snapshot: %w", err)
	default:
		snap = new(Snapshot)
		if err := json.Unmarshal(data, snap); err != nil {
			return nil, nil, fmt.Errorf("%w: snapshot %s unparseable (truncated write?): %v", ErrCorrupt, st.snapPath, err)
		}
		if snap.Version != SnapshotVersion {
			return nil, nil, fmt.Errorf("%w: snapshot %s has format version %d, this build supports %d",
				ErrCorrupt, st.snapPath, snap.Version, SnapshotVersion)
		}
		if snap.Deployed == nil {
			return nil, nil, fmt.Errorf("%w: snapshot %s has no deployed weights", ErrCorrupt, st.snapPath)
		}
	}
	raw, err := os.ReadFile(st.logPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("fleet: read event log: %w", err)
	}
	var base uint64
	if snap != nil {
		base = snap.Seq
	}
	recs, err := parseLog(st.logPath, raw, base)
	if err != nil {
		return nil, nil, err
	}
	return snap, recs, nil
}

// parseLog decodes the event log and returns the records to replay:
// those with seq > base, which must form a contiguous run starting at
// base+1. Records at or before base were already folded into the
// snapshot (the log is reset right after a snapshot commits, but a
// crash between the two leaves an overlap, which is harmless and
// skipped here).
func parseLog(path string, raw []byte, base uint64) ([]LogRecord, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	if raw[len(raw)-1] != '\n' {
		return nil, fmt.Errorf("%w: event log %s has a torn final record (crash mid-append)", ErrCorrupt, path)
	}
	var recs []LogRecord
	var prev uint64
	for i, line := range bytes.Split(raw[:len(raw)-1], []byte("\n")) {
		var rec LogRecord
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("%w: event log %s record %d unparseable: %v", ErrCorrupt, path, i+1, err)
		}
		if _, err := rec.Event.event(); err != nil {
			return nil, fmt.Errorf("%w: event log %s record %d: %v", ErrCorrupt, path, i+1, err)
		}
		if prev != 0 && rec.Seq != prev+1 {
			return nil, fmt.Errorf("%w: event log %s record %d has seq %d after %d (sequence gap)",
				ErrCorrupt, path, i+1, rec.Seq, prev)
		}
		prev = rec.Seq
		if rec.Seq <= base {
			continue // already folded into the snapshot
		}
		recs = append(recs, rec)
	}
	if len(recs) > 0 && recs[0].Seq != base+1 {
		return nil, fmt.Errorf("%w: event log %s starts at seq %d but the snapshot covers up to %d (sequence gap)",
			ErrCorrupt, path, recs[0].Seq, base)
	}
	return recs, nil
}

// Discard archives a corrupt checkpoint out of the way (renaming the
// snapshot and log with a .corrupt suffix, replacing any previous
// archive) and reopens an empty log, so the shard can cold-start and
// checkpoint fresh while the damaged files stay on disk for forensics.
func (st *Store) Discard() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.log != nil {
		st.log.Close()
		st.log = nil
	}
	for _, p := range []string{st.snapPath, st.logPath} {
		if _, err := os.Stat(p); err == nil {
			if err := os.Rename(p, p+".corrupt"); err != nil {
				return fmt.Errorf("fleet: archive corrupt checkpoint: %w", err)
			}
		}
	}
	return st.openLog()
}

// Close closes the event log.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.log == nil {
		return nil
	}
	err := st.log.Close()
	st.log = nil
	return err
}
