package fleet

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ingest"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// soakSet renders the mixed scenario catalogue the ctrl tests use:
// single and dual link failures, hot-spot surges and failures-under-
// surge, every episode healing back to base.
func soakSet(ev *routing.Evaluator) scenario.Set {
	g := ev.Graph()
	surgeD, surgeT := ev.DemandDelay().Clone().Scale(1.6), ev.DemandThroughput().Clone().Scale(1.6)
	return scenario.Merge("mixed",
		scenario.Set{Scenarios: []scenario.Scenario{
			scenario.LinkFailure{Links: []int{0}},
			scenario.LinkFailure{Links: []int{5}, Both: true},
		}},
		scenario.DualLinkFailures(g, 3, 7),
		scenario.HotspotSurges(ev.DemandDelay(), ev.DemandThroughput(), traffic.DefaultHotspot(true), 2, 11),
		scenario.WithTraffic(scenario.DualLinkFailures(g, 2, 13), surgeD, surgeT, "+surge"),
	)
}

// TestFleetFirehoseSoak drives a two-network fleet with merged firehose
// streams — each network's full scenario catalogue rendered as a
// sustained telemetry storm — killing one shard mid-stream, and proves
// every shard ends bit-identical to an uninterrupted twin controller
// that consumed the same per-network stream directly. The multi-network
// version of the kill/restore equivalence proof, through the exact
// batch cadence an operator's replay tooling produces.
func TestFleetFirehoseSoak(t *testing.T) {
	networks := []string{"east", "west"}
	shards, twins := testShards(t, networks, t.TempDir())

	// Render one firehose per network against that network's topology.
	streams := make(map[string][]scenario.TimedBatch, len(networks))
	for i, name := range networks {
		ev := testEvaluator(t, 8, 40, int64(40+i))
		streams[name] = scenario.Firehose(ev.Graph(), soakSet(ev), scenario.FirehoseConfig{
			BatchEvents: 16,
			Repeat:      2,
			Seed:        int64(60 + i),
		})
	}
	merged := scenario.MergeFirehoses(streams)
	if len(merged) == 0 {
		t.Fatal("empty merged firehose")
	}

	killAt := []int{len(merged) / 4, len(merged) / 2, 3 * len(merged) / 4}
	checkpointAt := []int{len(merged) / 3, 2 * len(merged) / 3}
	for i, nb := range merged {
		sh := shards[nb.Network]
		for {
			_, err := sh.Enqueue(nb.Events)
			if errors.Is(err, ingest.ErrFull) {
				sh.Quiesce()
				continue
			}
			if err != nil {
				t.Fatalf("batch %d (%s): %v", i, nb.Network, err)
			}
			break
		}
		if err := twins[nb.Network].ObserveBatch(nb.Events, 0, 0); err != nil {
			t.Fatalf("twin %s batch %d: %v", nb.Network, i, err)
		}
		for _, k := range checkpointAt {
			if i == k {
				for _, name := range networks {
					if err := shards[name].Checkpoint(); err != nil {
						t.Fatalf("checkpoint of %s at batch %d: %v", name, i, err)
					}
				}
			}
		}
		for _, k := range killAt {
			if i == k {
				// Alternate which shard dies so both recover mid-stream.
				shards[networks[k%len(networks)]].Kill()
			}
		}
	}

	for _, name := range networks {
		sh := shards[name]
		sh.Quiesce()
		st := sh.Status()
		if st.State != StateRunning {
			t.Fatalf("%s: state %s after soak", name, st.State)
		}
		if st.ColdStart {
			t.Fatalf("%s cold-started during the soak: %q", name, st.RestoreError)
		}
		c, err := sh.Controller()
		if err != nil {
			t.Fatal(err)
		}
		requireSameState(t, twins[name], c, "soak "+name)
	}

	// A firehose replays every episode to completion, so the fleet ends
	// back at base conditions: no links down anywhere.
	for _, name := range networks {
		c, _ := shards[name].Controller()
		if down := c.State().DownLinks; len(down) != 0 {
			t.Fatalf("%s: links %v still down after a healing stream", name, down)
		}
	}

	for _, name := range networks {
		if err := shards[name].Close(context.Background()); err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
	}
}
