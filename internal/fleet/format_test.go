package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// testdata/v1 holds a format-version-1 checkpoint written by an earlier
// build on populateCheckpoint's network and library (seeds 21 and 22):
// snapshot.json after pinnedStream's head and a partial migration
// toward pinnedTarget (so Active is -1), events.log holding the tail.
const (
	pinnedTarget     = 2
	pinnedMaxChanges = 3
)

// pinnedColumnDelta scales every delay-class demand into destination t
// by f.
func pinnedColumnDelta(ev *routing.Evaluator, t int, f float64) *traffic.Delta {
	d := &traffic.Delta{}
	for s := 0; s < ev.Graph().NumNodes(); s++ {
		if s == t {
			continue
		}
		old := ev.DemandDelay().At(s, t)
		d.Entries = append(d.Entries, traffic.DeltaEntry{S: s, T: t, Old: old, New: old * f})
	}
	return d
}

// pinnedStream is the telemetry testdata/v1 was written from: head is
// folded into the snapshot, tail is the logged suffix.
func pinnedStream(ev *routing.Evaluator) (head, tail []scenario.Event) {
	head = []scenario.Event{
		{Kind: scenario.EventLinkDown, Link: 3, Label: "pin-1"},
		{Kind: scenario.EventDemandDelta, DeltaD: pinnedColumnDelta(ev, 2, 1.5), Label: "pin-2"},
	}
	tail = []scenario.Event{
		{Kind: scenario.EventLinkDown, Link: 17, Label: "pin-3"},
		{Kind: scenario.EventDemandDelta, DeltaD: pinnedColumnDelta(ev, 5, 1.75), Label: "pin-4"},
		{Kind: scenario.EventLinkUp, Link: 3, Label: "pin-5"},
	}
	return head, tail
}

func readTestdata(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "v1", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPinnedCheckpointRestores loads the committed version-1 checkpoint
// through NewShard and requires State and Advise to match, bit for bit,
// a twin that observed the same stream and applied the same partial
// migration without interruption. It also pins the format in the other
// direction: at the checkpoint's position the twin's snapshot and event
// log encode to the committed files byte for byte.
func TestPinnedCheckpointRestores(t *testing.T) {
	ev := testEvaluator(t, 8, 40, 21)
	lib := testLibrary(t, ev, 3, 22)
	dir := t.TempDir()
	for _, name := range []string{snapshotFile, eventLogFile} {
		if err := os.WriteFile(filepath.Join(dir, name), readTestdata(t, name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sh, err := NewShard(ShardConfig{
		Network: "net0",
		Factory: func() (*ctrl.Selector, error) { return ctrl.NewSelector(ev, lib) },
		Dir:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close(context.Background())
	head, tail := pinnedStream(ev)
	if st := sh.Status(); st.ColdStart || st.Seq != uint64(len(head)+len(tail)) || st.Replayed != len(tail) {
		t.Fatalf("restore from testdata/v1: %+v", st)
	}
	got, err := sh.Controller()
	if err != nil {
		t.Fatal(err)
	}

	twinEv := testEvaluator(t, 8, 40, 21)
	twin, err := ctrl.NewSelector(twinEv, testLibrary(t, twinEv, 3, 22))
	if err != nil {
		t.Fatal(err)
	}
	head, tail = pinnedStream(twinEv)
	if err := twin.ObserveBatch(head, 0, 0); err != nil {
		t.Fatal(err)
	}
	mig, err := twin.Plan(pinnedTarget, pinnedMaxChanges)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.Apply(mig); err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(newSnapshot("net0", uint64(len(head)), twin.Checkpoint()))
	if err != nil {
		t.Fatal(err)
	}
	if want := readTestdata(t, snapshotFile); !bytes.Equal(snap, want) {
		t.Fatalf("snapshot encoding changed:\nwant %s\ngot  %s", want, snap)
	}
	logDir := t.TempDir()
	st, err := OpenStore(logDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(uint64(len(head))+1, tail); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if log, want := readFile(t, filepath.Join(logDir, eventLogFile)), readTestdata(t, eventLogFile); !bytes.Equal(log, want) {
		t.Fatalf("event log encoding changed:\nwant %s\ngot  %s", want, log)
	}
	if err := twin.ObserveBatch(tail, 0, 0); err != nil {
		t.Fatal(err)
	}

	ws, gs := twin.State(), got.State()
	if ws.Active != -1 {
		t.Fatalf("twin is not mid-migration: active %d", ws.Active)
	}
	if !reflect.DeepEqual(ws, gs) {
		t.Fatalf("state diverged:\nwant %+v\ngot  %+v", ws, gs)
	}
	if wa, ga := twin.Advise(), got.Advise(); !reflect.DeepEqual(wa, ga) {
		t.Fatalf("advice diverged:\nwant %+v\ngot  %+v", wa, ga)
	}
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzCheckpointLoad feeds arbitrary snapshot.json and events.log
// contents through Store.Load and, when Load accepts them, restores the
// snapshot into a fresh selector and replays the records. Nothing may
// panic: damaged files fail with ErrCorrupt, a restore or replay either
// succeeds or returns an error, and an accepted snapshot or record
// re-encodes to bytes that decode to an equal value. An empty snapshot
// input means no snapshot file.
func FuzzCheckpointLoad(f *testing.F) {
	f.Add(readTestdata(f, snapshotFile), readTestdata(f, eventLogFile))
	dir, _ := populateCheckpoint(f)
	f.Add(readFile(f, filepath.Join(dir, snapshotFile)), readFile(f, filepath.Join(dir, eventLogFile)))
	for _, d := range checkpointDamage {
		dir, _ := populateCheckpoint(f)
		d.corrupt(f, dir)
		f.Add(readFile(f, filepath.Join(dir, snapshotFile)), readFile(f, filepath.Join(dir, eventLogFile)))
	}
	f.Add([]byte(nil), []byte(nil))

	ev := testEvaluator(f, 8, 40, 21)
	lib := testLibrary(f, ev, 3, 22)
	f.Fuzz(func(t *testing.T, snapData, logData []byte) {
		dir := t.TempDir()
		if len(snapData) > 0 {
			if err := os.WriteFile(filepath.Join(dir, snapshotFile), snapData, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, eventLogFile), logData, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		snap, recs, err := st.Load()
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if snap != nil {
			var back Snapshot
			roundTrip(t, snap, &back)
			want := *snap
			if len(want.Down) == 0 {
				want.Down = nil // omitempty: an empty list encodes as absent
			}
			if !reflect.DeepEqual(&want, &back) {
				t.Fatalf("snapshot re-decodes differently:\nwant %+v\ngot  %+v", want, back)
			}
		}
		events := make([]scenario.Event, len(recs))
		for i := range recs {
			var back LogRecord
			roundTrip(t, &recs[i], &back)
			if !reflect.DeepEqual(recs[i], back) {
				t.Fatalf("record %d re-decodes differently:\nwant %+v\ngot  %+v", i, recs[i], back)
			}
			if events[i], err = recs[i].Event.event(); err != nil {
				t.Fatalf("Load accepted record %d with an undecodable event: %v", i, err)
			}
		}
		sel, err := ctrl.NewSelector(ev, lib)
		if err != nil {
			t.Fatal(err)
		}
		if snap != nil {
			if err := sel.Restore(snap.checkpoint()); err != nil {
				return
			}
		}
		if err := sel.ObserveBatch(events, 0, 0); err != nil {
			return
		}
		sel.State()
		sel.Advise()
	})
}

// roundTrip encodes v and decodes the bytes into back.
func roundTrip(t *testing.T, v, back any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatalf("decode re-encoded %s: %v", data, err)
	}
}
