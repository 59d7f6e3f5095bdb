package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ctrl"
	"repro/internal/ingest"
	"repro/internal/scenario"
)

// testShards builds one shard per network, each on its own seeded
// topology, plus an uninterrupted twin controller per network on an
// identical copy of that topology; the shards close at cleanup.
func testShards(t *testing.T, networks []string, dir string) (map[string]*Shard, map[string]*ctrl.Selector) {
	t.Helper()
	shards := make(map[string]*Shard, len(networks))
	twins := make(map[string]*ctrl.Selector, len(networks))
	for i, name := range networks {
		seed := int64(40 + i)
		ev := testEvaluator(t, 8, 40, seed)
		lib := testLibrary(t, ev, 3, seed+100)
		twinEv := testEvaluator(t, 8, 40, seed)
		twinLib := testLibrary(t, twinEv, 3, seed+100)
		twin, err := ctrl.NewSelector(twinEv, twinLib)
		if err != nil {
			t.Fatal(err)
		}
		twins[name] = twin
		cfg := ShardConfig{
			Network: name,
			Factory: func() (*ctrl.Selector, error) { return ctrl.NewSelector(ev, lib) },
		}
		if dir != "" {
			cfg.Dir = dir + "/" + name
		}
		sh, err := NewShard(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close(context.Background()) })
		shards[name] = sh
	}
	return shards, twins
}

// TestCrashIsolation is the fleet's blast-radius proof, run under
// -race in CI: a shard whose delivery path panics mid-stream restarts
// from checkpoint on its own, while concurrent producers and readers on
// every other shard never see an error. One tenant's poison batch
// cannot take down the fleet.
func TestCrashIsolation(t *testing.T) {
	networks := []string{"alpha", "beta", "gamma"}
	shards, _ := testShards(t, networks, t.TempDir())

	// Poison pill: the beta shard's delivery path panics whenever a
	// batch carries the boom label.
	shB := shards["beta"]
	var booms atomic.Int64
	shB.SetDeliveryHook(func(events []scenario.Event) {
		for _, e := range events {
			if e.Label == "boom" {
				booms.Add(1)
				panic("poison batch")
			}
		}
	})

	var wg sync.WaitGroup
	errCh := make(chan error, len(networks)*2)
	for i, name := range networks {
		ev := testEvaluator(t, 8, 40, int64(40+i))
		stream := eventStream(ev, 120, int64(50+i))
		wg.Add(1)
		go func(name string, events []scenario.Event) {
			defer wg.Done()
			for j := 0; j < len(events); j += 4 {
				end := min(j+4, len(events))
				batch := make([]scenario.Event, end-j)
				copy(batch, events[j:end])
				if name == "beta" && j%24 == 0 {
					batch[0].Label = "boom"
				}
				for {
					_, err := shards[name].Enqueue(batch)
					switch {
					case err == nil:
					case errors.Is(err, ErrShardDown), errors.Is(err, ingest.ErrFull):
						// beta mid-restart or backpressured: retry. Only beta
						// may ever be down; any other shard erroring here is
						// an isolation failure caught below.
						if name != "beta" {
							errCh <- fmt.Errorf("%s: %w", name, err)
							return
						}
						continue
					default:
						errCh <- fmt.Errorf("%s: %w", name, err)
						return
					}
					break
				}
				// Readers on healthy shards must always be served.
				if name != "beta" {
					if _, err := shards[name].Controller(); err != nil {
						errCh <- fmt.Errorf("%s controller: %w", name, err)
						return
					}
				}
			}
		}(name, stream)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The storm usually fires several poison batches, but the label rides
	// the event through the intake queue, and coalescing can cancel a
	// boom-labeled flap against its recovery before delivery. If every
	// boom was merged away, force one through a drained queue so the
	// crash always fires.
	for attempt := 0; booms.Load() == 0; attempt++ {
		if attempt >= 100 {
			t.Fatal("poison batches never fired: crash isolation untested")
		}
		boom := []scenario.Event{{Kind: scenario.EventLinkDown, Link: 0, Label: "boom"}}
		if _, err := shB.Enqueue(boom); err != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		shB.Quiesce()
	}

	// A delivery panic spawns the restart asynchronously; until that
	// goroutine runs, the shard still reads as running with zero crashes.
	// Wait for beta to register the crash before judging fleet health, or
	// the pending restart trips the checkpoints below.
	for i := 0; shB.Status().Crashes == 0; i++ {
		if i >= 1000 {
			t.Fatalf("beta never registered its crash: %+v", shB.Status())
		}
		time.Sleep(time.Millisecond)
	}

	// Let beta finish restarting, then verify the whole fleet is healthy
	// and beta actually crashed and recovered.
	shB.SetDeliveryHook(nil)
	deadlineWait(t, shards)
	for _, sh := range shards {
		st := sh.Status()
		if st.State != StateRunning {
			t.Errorf("%s: state %s after the storm", st.Network, st.State)
		}
		if st.Network == "beta" {
			if st.Crashes == 0 {
				t.Error("beta never crashed")
			}
		} else {
			if st.Crashes != 0 {
				t.Errorf("%s crashed %d times: blast radius escaped beta", st.Network, st.Crashes)
			}
			if st.ColdStart || st.RestoreError != "" {
				t.Errorf("%s: spurious recovery %+v", st.Network, st)
			}
		}
	}
	for name, sh := range shards {
		if err := sh.Checkpoint(); err != nil {
			t.Fatalf("post-storm checkpoint of %s: %v", name, err)
		}
	}
}

// deadlineWait blocks until every shard reports running (restarts are
// asynchronous after a delivery panic).
func deadlineWait(t *testing.T, shards map[string]*Shard) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		running := true
		for _, sh := range shards {
			if sh.Status().State != StateRunning {
				running = false
			}
		}
		if running {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for name, sh := range shards {
		t.Errorf("%s: %+v", name, sh.Status())
	}
	t.Fatal("fleet never settled")
}

// TestShardLifecycle covers pause/resume/quiesce plumbing: a paused
// shard holds deliveries but keeps admitting, and checkpointing a
// paused shard with queued events fails rather than silently skipping
// them.
func TestShardLifecycle(t *testing.T) {
	shards, _ := testShards(t, []string{"alpha"}, t.TempDir())
	sh := shards["alpha"]
	ev := testEvaluator(t, 8, 40, 40)
	if err := sh.Pause(); err != nil {
		t.Fatal(err)
	}
	seq, err := sh.Enqueue(eventStream(ev, 8, 2))
	if err != nil {
		t.Fatalf("paused shard rejected admission: %v", err)
	}
	if seq != 8 {
		t.Fatalf("last seq %d, want 8", seq)
	}
	if st := sh.Status(); st.Intake.Depth == 0 {
		t.Fatal("paused shard delivered anyway")
	}
	if err := sh.Checkpoint(); err == nil {
		t.Fatal("checkpoint of a paused shard with queued events succeeded")
	}
	if err := sh.Resume(); err != nil {
		t.Fatal(err)
	}
	sh.Quiesce()
	if st := sh.Status(); st.Intake.Depth != 0 || st.Intake.Delivered != 8 {
		t.Fatalf("after resume+quiesce: %+v", st.Intake)
	}
	if err := sh.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after resume: %v", err)
	}
}
