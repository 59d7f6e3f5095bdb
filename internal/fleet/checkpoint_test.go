package fleet

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// populateCheckpoint writes a realistic checkpoint — a mid-stream
// snapshot plus a non-empty event-log tail — straight through the
// Store, returning the directory and the factory that rebuilds its
// controller. (A graceful Shard.Close flushes a final checkpoint and
// resets the log, so this builds the "crashed mid-stream" layout the
// corruption cases need.)
func populateCheckpoint(t *testing.T) (string, func() (*Controller, error)) {
	t.Helper()
	ev := testEvaluator(t, 8, 40, 21)
	lib := testLibrary(t, ev, 3, 22)
	factory := func() (*Controller, error) { return NewController(ev, lib) }
	c, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	stream := eventStream(ev, 60, 23)
	if err := c.ObserveBatch(stream[:40], 0, 0); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(c.Snapshot("net0", 40)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(41, stream[40:]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, factory
}

// TestCheckpointCorruption proves every damage mode fails closed: Load
// reports ErrCorrupt (never partial data), and a shard recovering from
// the damaged directory falls back to a cold start with the damaged
// files archived for forensics — it never half-restores.
func TestCheckpointCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		wantErr string
	}{
		{
			name: "truncated snapshot",
			corrupt: func(t *testing.T, dir string) {
				p := filepath.Join(dir, "snapshot.json")
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "unparseable",
		},
		{
			name: "version mismatch",
			corrupt: func(t *testing.T, dir string) {
				p := filepath.Join(dir, "snapshot.json")
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				s := strings.Replace(string(data), `"version":1`, `"version":99`, 1)
				if s == string(data) {
					t.Fatal("version field not found in snapshot")
				}
				if err := os.WriteFile(p, []byte(s), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "format version 99",
		},
		{
			name: "torn log tail",
			corrupt: func(t *testing.T, dir string) {
				p := filepath.Join(dir, "events.log")
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if len(data) < 10 {
					t.Fatalf("log too small to tear: %d bytes", len(data))
				}
				if err := os.WriteFile(p, data[:len(data)-7], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "torn final record",
		},
		{
			name: "garbled log line",
			corrupt: func(t *testing.T, dir string) {
				p := filepath.Join(dir, "events.log")
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				copy(data[2:], "\x00\x01garbage")
				if err := os.WriteFile(p, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "unparseable",
		},
		{
			name: "sequence gap",
			corrupt: func(t *testing.T, dir string) {
				p := filepath.Join(dir, "events.log")
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.SplitAfter(string(data), "\n")
				if len(lines) < 4 {
					t.Fatalf("log has only %d lines", len(lines))
				}
				// Drop a middle record: the run is no longer contiguous.
				out := strings.Join(append(lines[:1], lines[2:]...), "")
				if err := os.WriteFile(p, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "sequence gap",
		},
		{
			name: "log disconnected from snapshot",
			corrupt: func(t *testing.T, dir string) {
				p := filepath.Join(dir, "events.log")
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.SplitAfter(string(data), "\n")
				if len(lines) < 3 {
					t.Fatalf("log has only %d lines", len(lines))
				}
				// Drop the first records: replay can no longer start at
				// snapshot seq + 1.
				if err := os.WriteFile(p, []byte(strings.Join(lines[2:], "")), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "sequence gap",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, factory := populateCheckpoint(t)
			tc.corrupt(t, dir)

			// Store-level contract: Load fails closed with ErrCorrupt and
			// a diagnosis, returning no partial data.
			st, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			snap, recs, err := st.Load()
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load error = %v, want ErrCorrupt", err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Load error %q does not mention %q", err, tc.wantErr)
			}
			if snap != nil || recs != nil {
				t.Fatalf("Load returned partial data alongside corruption: snap=%v recs=%d", snap != nil, len(recs))
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			// Shard-level contract: recovery cold-starts, reports why, and
			// archives the damaged files rather than deleting them.
			sh, err := NewShard(ShardConfig{Network: "net0", Factory: factory, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close(context.Background())
			stat := sh.Status()
			if !stat.ColdStart {
				t.Fatal("shard restored from a corrupt checkpoint instead of cold-starting")
			}
			if !strings.Contains(stat.RestoreError, tc.wantErr) {
				t.Fatalf("RestoreError %q does not mention %q", stat.RestoreError, tc.wantErr)
			}
			if stat.Seq != 0 {
				t.Fatalf("cold start began at seq %d, want 0", stat.Seq)
			}
			archived := false
			for _, p := range []string{"snapshot.json.corrupt", "events.log.corrupt"} {
				if _, err := os.Stat(filepath.Join(dir, p)); err == nil {
					archived = true
				}
			}
			if !archived {
				t.Fatal("no .corrupt archive left on disk")
			}

			// The cold-started shard must be fully serviceable: it accepts
			// telemetry, checkpoints fresh and recovers from the new
			// checkpoint.
			ev2 := testEvaluator(t, 8, 40, 21)
			if err := sh.Feed(eventStream(ev2, 10, 99)); err != nil {
				t.Fatalf("cold-started shard rejects telemetry: %v", err)
			}
			if err := sh.Checkpoint(); err != nil {
				t.Fatalf("cold-started shard cannot checkpoint: %v", err)
			}
			sh.Kill()
			if st := sh.Status(); st.ColdStart || st.State != StateRunning {
				t.Fatalf("recovery from the fresh checkpoint failed: %+v", st)
			}
		})
	}
}

// TestCheckpointMissingDir proves a shard without a checkpoint dir runs
// fine (pure in-memory, no durability) but refuses Checkpoint calls.
func TestCheckpointNoDir(t *testing.T) {
	ev := testEvaluator(t, 8, 40, 31)
	lib := testLibrary(t, ev, 3, 32)
	sh, err := NewShard(ShardConfig{
		Network: "net0",
		Factory: func() (*Controller, error) { return NewController(ev, lib) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close(context.Background())
	if err := sh.Feed(eventStream(ev, 10, 33)); err != nil {
		t.Fatal(err)
	}
	if err := sh.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded without a checkpoint directory")
	}
	// Kill still recovers — by replaying nothing into a fresh controller.
	sh.Kill()
	if st := sh.Status(); st.State != StateRunning || !st.ColdStart {
		t.Fatalf("non-durable shard did not cold-restart: %+v", st)
	}
}

// TestSnapshotLibraryMismatch proves a snapshot taken against a
// different library fails closed at restore (cold start), not
// half-restore: the deployed weights no longer match the active entry.
func TestSnapshotLibraryMismatch(t *testing.T) {
	dir, _ := populateCheckpoint(t)
	ev := testEvaluator(t, 8, 40, 21)
	otherLib := testLibrary(t, ev, 3, 77) // different weights
	sh, err := NewShard(ShardConfig{
		Network: "net0",
		Factory: func() (*Controller, error) { return NewController(ev, otherLib) },
		Dir:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close(context.Background())
	stat := sh.Status()
	if !stat.ColdStart {
		t.Fatal("shard restored a snapshot from a different library")
	}
	if !strings.Contains(stat.RestoreError, "library") {
		t.Fatalf("RestoreError %q does not explain the library mismatch", stat.RestoreError)
	}
}

// TestCloseCutShortKeepsLog: a Close whose drain ctx cuts short must not
// commit a final checkpoint. The controller has not seen every admitted
// event, and a snapshot claiming them would drop them along with the
// log; the reopened shard instead replays the log and matches an
// uninterrupted twin.
func TestCloseCutShortKeepsLog(t *testing.T) {
	ev := testEvaluator(t, 8, 40, 5)
	lib := testLibrary(t, ev, 3, 6)
	twinEv := testEvaluator(t, 8, 40, 5)
	twin, err := NewController(twinEv, testLibrary(t, twinEv, 3, 6))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ShardConfig{
		Network: "net0",
		Factory: func() (*Controller, error) { return NewController(ev, lib) },
		Dir:     t.TempDir(),
	}
	sh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the first delivery inside the shard so the drain cannot finish.
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	sh.SetDeliveryHook(func([]scenario.Event) {
		once.Do(func() { close(entered) })
		<-release
	})
	stream := eventStream(ev, 12, 7)
	if _, err := sh.Enqueue(stream[:6]); err != nil {
		t.Fatal(err)
	}
	<-entered
	if _, err := sh.Enqueue(stream[6:]); err != nil {
		t.Fatal(err)
	}
	if err := twin.ObserveBatch(stream, 0, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sh.Close(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close with a cancelled drain = %v, want context.Canceled", err)
	}
	close(release)
	sh.Quiesce() // the old queue finishes draining before the reopen

	sh2, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close(context.Background())
	if st := sh2.Status(); st.Seq != 12 || st.Replayed != 12 || st.ColdStart {
		t.Fatalf("reopened shard %+v, want seq 12 with all 12 events replayed", st)
	}
	c, err := sh2.Controller()
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, twin, c, "after a cut-short close")
}
