package repro

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/obsv"
)

// fleetTestMembers builds a two-network fleet declaration with distinct
// topologies (different seeds) and per-network libraries.
func fleetTestMembers(t testing.TB) []FleetMember {
	t.Helper()
	members := make([]FleetMember, 2)
	for i, name := range []string{"east", "west"} {
		net, err := NewNetwork(NetworkSpec{Topology: "rand", Nodes: 8, Links: 32, Seed: int64(3 + i)})
		if err != nil {
			t.Fatal(err)
		}
		lib, _ := controlTestLibrary(t, net)
		members[i] = FleetMember{Name: name, Net: net, Library: lib}
	}
	return members
}

func closeFleet(t testing.TB, f *Fleet) {
	t.Helper()
	if err := f.Close(context.Background()); err != nil {
		t.Errorf("fleet close: %v", err)
	}
}

func TestFleetRoutingByNetworkField(t *testing.T) {
	f, err := NewFleet(fleetTestMembers(t), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)

	if got := f.Networks(); len(got) != 2 || got[0] != "east" || got[1] != "west" {
		t.Fatalf("Networks() = %v", got)
	}
	if f.DefaultNetwork() != "east" {
		t.Fatalf("default = %q", f.DefaultNetwork())
	}

	// One batch carrying events for both networks plus the default route
	// (empty Network → first member).
	res, err := f.Enqueue([]ControlEvent{
		{Kind: "link-down", Link: 1, Network: "east"},
		{Kind: "link-down", Link: 2, Network: "west"},
		{Kind: "link-down", Link: 3}, // default: east
		{Kind: "link-up", Link: 1, Network: "east"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 4 {
		t.Fatalf("accepted %d, want 4", res.Accepted)
	}
	if res.LastSeq["east"] != 3 || res.LastSeq["west"] != 1 {
		t.Fatalf("LastSeq = %v", res.LastSeq)
	}
	// Each shard numbers its own admissions; a batch for one network
	// leaves its neighbour untouched.
	res, err = f.Enqueue([]ControlEvent{
		{Kind: "link-down", Link: 4, Network: "east"},
		{Kind: "link-up", Link: 4, Network: "east"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LastSeq) != 1 || res.LastSeq["east"] != 5 {
		t.Fatalf("east-only batch: LastSeq = %v, want map[east:5]", res.LastSeq)
	}
	f.QuiesceAll()
	for _, sh := range f.FleetState().Shards {
		if want := map[string]uint64{"east": 5, "west": 1}[sh.Network]; sh.Seq != want || sh.Intake.Accepted != want {
			t.Fatalf("%s: seq %d, accepted %d, want %d", sh.Network, sh.Seq, sh.Intake.Accepted, want)
		}
	}

	east, err := f.State("east")
	if err != nil {
		t.Fatal(err)
	}
	if len(east.DownLinks) != 1 || east.DownLinks[0] != 3 {
		t.Fatalf("east down links %v, want [3]", east.DownLinks)
	}
	west, err := f.State("west")
	if err != nil {
		t.Fatal(err)
	}
	if len(west.DownLinks) != 1 || west.DownLinks[0] != 2 {
		t.Fatalf("west down links %v, want [2]", west.DownLinks)
	}
	// "" resolves to the default network for queries too.
	def, err := f.State("")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.DownLinks) != 1 || def.DownLinks[0] != 3 {
		t.Fatalf("default state is not east: %v", def.DownLinks)
	}
}

func TestFleetRejectsWholeBatchUpfront(t *testing.T) {
	reg := obsv.NewRegistry()
	obsv.SetDefault(reg)
	defer obsv.SetDefault(nil)
	f, err := NewFleet(fleetTestMembers(t), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)

	// Unknown network in the middle: nothing is admitted anywhere.
	_, err = f.Enqueue([]ControlEvent{
		{Kind: "link-down", Link: 1, Network: "east"},
		{Kind: "link-down", Link: 2, Network: "mars"},
	})
	if !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("error = %v, want ErrUnknownNetwork", err)
	}
	if !strings.Contains(err.Error(), "event 1") {
		t.Fatalf("error %q does not locate the offending event", err)
	}
	if !strings.Contains(err.Error(), "east") || !strings.Contains(err.Error(), "west") {
		t.Fatalf("error %q does not name the known networks", err)
	}
	if _, err := f.Advise("mars"); !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("Advise(mars) error = %v, want ErrUnknownNetwork", err)
	}
	if n := reg.Counter("fleet_unknown_network_total", "").Value(); n != 2 {
		t.Fatalf("fleet_unknown_network_total = %d, want 2", n)
	}
	// Malformed event: same upfront rejection.
	if _, err := f.Enqueue([]ControlEvent{
		{Kind: "link-down", Link: 1, Network: "east"},
		{Kind: "no-such-type", Network: "west"},
	}); err == nil {
		t.Fatal("malformed event admitted")
	}
	f.QuiesceAll()
	st := f.FleetState()
	for _, sh := range st.Shards {
		if sh.Seq != 0 {
			t.Fatalf("%s admitted %d events from rejected batches", sh.Network, sh.Seq)
		}
	}
}

func TestFleetBackpressurePerShard(t *testing.T) {
	f, err := NewFleet(fleetTestMembers(t), FleetOptions{
		IntakeCapacity: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)

	// Freeze east's deliveries so its tiny queue fills, then offer a
	// mixed batch: west's sub-batch must land even though east sheds.
	if err := f.Pause("east"); err != nil {
		t.Fatal(err)
	}
	fill := make([]ControlEvent, 4)
	for i := range fill {
		fill[i] = ControlEvent{Kind: "link-down", Link: i, Network: "east"}
	}
	if _, err := f.Enqueue(fill); err != nil {
		t.Fatal(err)
	}
	res, err := f.Enqueue([]ControlEvent{
		{Kind: "link-down", Link: 5, Network: "east"},
		{Kind: "link-down", Link: 6, Network: "west"},
	})
	if !errors.Is(err, ErrIntakeFull) {
		t.Fatalf("error = %v, want ErrIntakeFull", err)
	}
	if len(res.Shed) != 1 || res.Shed[0] != "east" {
		t.Fatalf("Shed = %v, want [east]", res.Shed)
	}
	if res.Accepted != 1 || res.LastSeq["west"] != 1 {
		t.Fatalf("west sub-batch not admitted: %+v", res)
	}
	if err := f.Resume("east"); err != nil {
		t.Fatal(err)
	}
	f.QuiesceAll()
}

func TestFleetCheckpointRestore(t *testing.T) {
	members := fleetTestMembers(t)
	dir := t.TempDir()
	f, err := NewFleet(members, FleetOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Enqueue([]ControlEvent{
		{Kind: "link-down", Link: 1, Network: "east"},
		{Kind: "link-down", Link: 2, Network: "west"},
		{Kind: "demand-scale", Scale: 1.5, Network: "west"},
	}); err != nil {
		t.Fatal(err)
	}
	f.QuiesceAll()
	wantEast, err := f.State("east")
	if err != nil {
		t.Fatal(err)
	}
	wantWest, err := f.State("west")
	if err != nil {
		t.Fatal(err)
	}
	// Kill mid-flight: both shards restore from write-ahead state alone
	// (no explicit checkpoint yet).
	if err := f.Kill("west"); err != nil {
		t.Fatal(err)
	}
	gotWest, err := f.State("west")
	if err != nil {
		t.Fatal(err)
	}
	if gotWest.Deployed != wantWest.Deployed || len(gotWest.DownLinks) != len(wantWest.DownLinks) {
		t.Fatalf("west diverged after kill:\nwant %+v\ngot  %+v", wantWest, gotWest)
	}

	// Full restart: close the fleet and reopen over the same directory.
	if err := f.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	f2, err := NewFleet(members, FleetOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f2)
	st := f2.FleetState()
	for _, sh := range st.Shards {
		if sh.ColdStart {
			t.Fatalf("%s cold-started on reopen: %q", sh.Network, sh.RestoreError)
		}
	}
	gotEast, err := f2.State("east")
	if err != nil {
		t.Fatal(err)
	}
	gotWest, err = f2.State("west")
	if err != nil {
		t.Fatal(err)
	}
	if gotEast.Deployed != wantEast.Deployed || len(gotEast.DownLinks) != 1 || gotEast.DownLinks[0] != 1 {
		t.Fatalf("east state lost across restart:\nwant %+v\ngot  %+v", wantEast, gotEast)
	}
	if gotWest.Deployed != wantWest.Deployed || len(gotWest.DownLinks) != 1 || gotWest.DownLinks[0] != 2 {
		t.Fatalf("west state lost across restart:\nwant %+v\ngot  %+v", wantWest, gotWest)
	}
}

func TestFleetStateAggregation(t *testing.T) {
	f, err := NewFleet(fleetTestMembers(t), FleetOptions{CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)
	if _, err := f.Enqueue([]ControlEvent{
		{Kind: "link-down", Link: 1, Network: "east"},
		{Kind: "link-down", Link: 2, Network: "west"},
	}); err != nil {
		t.Fatal(err)
	}
	f.QuiesceAll()
	if err := f.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	st := f.FleetState()
	if st.Default != "east" || len(st.Shards) != 2 {
		t.Fatalf("fleet state shape: %+v", st)
	}
	if st.TotalAccepted < 2 || st.TotalDelivered < 2 {
		t.Fatalf("totals not rolled up: %+v", st)
	}
	if st.TotalCheckpoints < 2 {
		t.Fatalf("TotalCheckpoints = %d, want >= 2", st.TotalCheckpoints)
	}
	for _, sh := range st.Shards {
		if !sh.Up || sh.State != "running" {
			t.Fatalf("%s not serving: %+v", sh.Network, sh)
		}
		if sh.ActiveName == "" {
			t.Fatalf("%s missing controller fields: %+v", sh.Network, sh)
		}
	}
	// A crash shows up in the rollup (intake counters reset with the
	// restarted queue, so only the crash counter survives the kill).
	if err := f.Kill("west"); err != nil {
		t.Fatal(err)
	}
	st = f.FleetState()
	if st.TotalCrashes != 1 {
		t.Fatalf("TotalCrashes = %d, want 1", st.TotalCrashes)
	}
	for _, sh := range st.Shards {
		if !sh.Up || sh.State != "running" {
			t.Fatalf("%s not serving after the kill: %+v", sh.Network, sh)
		}
	}
}

func TestFleetValidation(t *testing.T) {
	members := fleetTestMembers(t)
	if _, err := NewFleet(nil, FleetOptions{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewFleet([]FleetMember{members[0], members[0]}, FleetOptions{}); err == nil {
		t.Error("duplicate name accepted")
	}
	bad := members[0]
	bad.Name = "not a name!"
	if _, err := NewFleet([]FleetMember{bad}, FleetOptions{}); err == nil {
		t.Error("invalid name accepted")
	}
	cross := FleetMember{Name: "x", Net: members[0].Net, Library: members[1].Library}
	if _, err := NewFleet([]FleetMember{cross}, FleetOptions{}); err == nil || !strings.Contains(err.Error(), "different network") {
		t.Errorf("cross-network library error = %v", err)
	}
	// A shard whose controller factory fails sinks the whole fleet, and
	// the shards already built are closed: east's drain flushes its
	// final checkpoint.
	dir := t.TempDir()
	broken := members[1]
	broken.Library = &Library{lib: &ctrl.Library{}, net: broken.Net}
	if _, err := NewFleet([]FleetMember{members[0], broken}, FleetOptions{CheckpointDir: dir}); err == nil || !strings.Contains(err.Error(), "fleet: shard west") {
		t.Errorf("failing factory error = %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "east", "snapshot.json")); err != nil {
		t.Errorf("east was not closed after west failed to build: %v", err)
	}
}

// TestFleetReplaySurgeLogsDeltasOnly: a durable fleet replaying a
// hot-spot surge writes the sparse deltas to its event log and no dense
// n×n matrices.
func TestFleetReplaySurgeLogsDeltasOnly(t *testing.T) {
	net, err := NewNetwork(NetworkSpec{Topology: "rand", Nodes: 8, Links: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lib, _ := controlTestLibrary(t, net)
	dir := t.TempDir()
	f, err := NewFleet([]FleetMember{{Name: "east", Net: net, Library: lib}}, FleetOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)
	surges := net.HotspotSurgeScenarios(true, 2, 5)
	for i := 0; i < surges.Size(); i++ {
		for _, onset := range []bool{true, false} {
			if err := f.ReplayEpisode("east", surges, i, onset); err != nil {
				t.Fatal(err)
			}
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "east", "events.log"))
	if err != nil {
		t.Fatal(err)
	}
	deltas := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec struct {
			Event map[string]json.RawMessage `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log record %q: %v", line, err)
		}
		if string(rec.Event["kind"]) == `"demand-delta"` {
			deltas++
		}
		for _, field := range []string{"demd", "demt"} {
			if _, ok := rec.Event[field]; ok {
				t.Fatalf("log record carries a dense %s matrix: %.200s", field, line)
			}
		}
	}
	if deltas != 2*surges.Size() {
		t.Fatalf("logged %d demand-delta records, want %d", deltas, 2*surges.Size())
	}
}

func TestFleetReplayEpisode(t *testing.T) {
	net, err := NewNetwork(NetworkSpec{Topology: "rand", Nodes: 8, Links: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lib, set := controlTestLibrary(t, net)
	f, err := NewFleet([]FleetMember{{Name: "east", Net: net, Library: lib}}, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)
	if err := f.ReplayEpisode("east", set, 0, true); err != nil {
		t.Fatal(err)
	}
	st, err := f.State("east")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.DownLinks) == 0 {
		t.Fatal("episode onset left no links down")
	}
	if err := f.ReplayEpisode("east", set, 0, false); err != nil {
		t.Fatal(err)
	}
	st, err = f.State("east")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.DownLinks) != 0 {
		t.Fatalf("episode recovery left links down: %v", st.DownLinks)
	}
	if err := f.ReplayEpisode("east", set, 99, true); err == nil {
		t.Error("out-of-range episode accepted")
	}
}
