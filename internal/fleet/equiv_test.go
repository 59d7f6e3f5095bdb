package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ctrl"
)

// TestKillRestoreEquivalence is the recovery proof for the checkpoint
// subsystem: a durable shard that is checkpointed and killed at random
// points of a random telemetry stream must end bit-identical — same
// advice, same candidate scores, same migration plan — to an
// uninterrupted twin controller that consumed the same stream directly.
// Snapshot + log replay therefore reconstructs selector state exactly,
// not approximately.
func TestKillRestoreEquivalence(t *testing.T) {
	type topo struct {
		name         string
		nodes, links int
	}
	topos := []topo{{"rand8", 8, 40}}
	if !testing.Short() {
		topos = append(topos, topo{"rand100", 100, 600})
	}
	for _, tp := range topos {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tp.name, seed), func(t *testing.T) {
				testKillRestoreEquivalence(t, tp.nodes, tp.links, seed)
			})
		}
	}
}

func testKillRestoreEquivalence(t *testing.T, nodes, links int, seed int64) {
	ev := testEvaluator(t, nodes, links, seed)
	lib := testLibrary(t, ev, 4, seed+100)
	twinEv := testEvaluator(t, nodes, links, seed) // same seed: identical network
	twinLib := testLibrary(t, twinEv, 4, seed+100)

	twin, err := ctrl.NewSelector(twinEv, twinLib)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sh, err := NewShard(ShardConfig{
		Network: "net0",
		Factory: func() (*ctrl.Selector, error) { return ctrl.NewSelector(ev, lib) },
		Dir:     dir,
		// No automatic interval: the test drives checkpoints itself so
		// kill points land both before and after snapshots.
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close(context.Background())

	stream := eventStream(ev, 240, seed+7)
	rng := rand.New(rand.NewSource(seed + 13))
	for i := 0; i < len(stream); {
		n := 1 + rng.Intn(24)
		if i+n > len(stream) {
			n = len(stream) - i
		}
		batch := stream[i : i+n]
		if _, err := sh.Enqueue(batch); err != nil {
			t.Fatalf("enqueue at %d: %v", i, err)
		}
		if err := twin.ObserveBatch(batch, 0, 0); err != nil {
			t.Fatalf("twin observe at %d: %v", i, err)
		}
		i += n
		switch rng.Intn(5) {
		case 0:
			if err := sh.Checkpoint(); err != nil {
				t.Fatalf("checkpoint at %d: %v", i, err)
			}
		case 1:
			// Kill with events potentially still queued: recovery must
			// replay the log past whatever delivery had reached.
			sh.Kill()
		}
	}
	sh.Quiesce()

	st := sh.Status()
	if st.ColdStart {
		t.Fatalf("shard cold-started (restore error %q): recovery never exercised", st.RestoreError)
	}
	if st.Seq != uint64(len(stream)) {
		t.Fatalf("shard seq = %d, want %d", st.Seq, len(stream))
	}

	c, err := sh.Controller()
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, twin, c, "after in-process kills")

	// Process-restart equivalence: close the shard (flushes a final
	// checkpoint) and reopen the same directory cold.
	if err := sh.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	sh2, err := NewShard(ShardConfig{
		Network: "net0",
		Factory: func() (*ctrl.Selector, error) { return ctrl.NewSelector(ev, lib) },
		Dir:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close(context.Background())
	st2 := sh2.Status()
	if st2.ColdStart {
		t.Fatalf("reopened shard cold-started: %q", st2.RestoreError)
	}
	if st2.Seq != uint64(len(stream)) {
		t.Fatalf("reopened shard seq = %d, want %d", st2.Seq, len(stream))
	}
	c2, err := sh2.Controller()
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, twin, c2, "after process restart")
}

// TestShardCheckpointTick proves the periodic checkpointer runs without
// operator calls: feed a durable shard with a short interval and wait
// for the checkpoint counter to move.
func TestShardCheckpointTick(t *testing.T) {
	ev := testEvaluator(t, 8, 40, 5)
	lib := testLibrary(t, ev, 3, 6)
	sh, err := NewShard(ShardConfig{
		Network:            "net0",
		Factory:            func() (*ctrl.Selector, error) { return ctrl.NewSelector(ev, lib) },
		Dir:                t.TempDir(),
		CheckpointInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close(context.Background())
	if err := sh.Feed(eventStream(ev, 10, 5)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sh.Status().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpoint never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := sh.Status().LastCheckpointSeq; got != 10 {
		t.Fatalf("LastCheckpointSeq = %d, want 10", got)
	}
}
