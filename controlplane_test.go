package repro

import (
	"encoding/json"
	"strings"
	"testing"
)

func controlTestNetwork(t testing.TB) *Network {
	t.Helper()
	net, err := NewNetwork(NetworkSpec{Topology: "rand", Nodes: 8, Links: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func controlTestLibrary(t testing.TB, net *Network) (*Library, *ScenarioSet) {
	t.Helper()
	set, err := net.MergeScenarios("day",
		net.DualLinkFailureScenarios(4, 5),
		net.HotspotSurgeScenarios(true, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	lib, err := net.BuildLibrary(set, LibraryOptions{Size: 2, Budget: "quick", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return lib, set
}

func TestBuildLibraryFacade(t *testing.T) {
	net := controlTestNetwork(t)
	lib, _ := controlTestLibrary(t, net)
	if lib.Size() < 1 || lib.Size() > 2 {
		t.Fatalf("library size %d", lib.Size())
	}
	if names := lib.Names(); len(names) != lib.Size() || names[0] == "" {
		t.Fatalf("names %v", names)
	}
	r, err := lib.Routing(0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Evaluate().DelayCost < 0 {
		t.Fatal("unusable routing")
	}
	if _, err := lib.Routing(99); err == nil {
		t.Error("out-of-range routing accepted")
	}

	// Error paths.
	other := controlTestNetwork(t)
	if _, err := other.BuildLibrary(nil, LibraryOptions{}); err == nil {
		t.Error("nil set accepted")
	}
	foreignSet, _ := net.MergeScenarios("x", net.SingleLinkFailureScenarios())
	if _, err := other.BuildLibrary(foreignSet, LibraryOptions{}); err == nil || !strings.Contains(err.Error(), "different network") {
		t.Errorf("foreign set error = %v", err)
	}
	if _, err := net.BuildLibrary(foreignSet, LibraryOptions{Budget: "wat"}); err == nil {
		t.Error("bad budget accepted")
	}
}

func TestLibraryJSONFacadeRoundTrip(t *testing.T) {
	net := controlTestNetwork(t)
	lib, _ := controlTestLibrary(t, net)
	data, err := json.Marshal(lib)
	if err != nil {
		t.Fatal(err)
	}
	back, err := net.LibraryFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != lib.Size() {
		t.Fatalf("round trip size %d != %d", back.Size(), lib.Size())
	}
	other, err := NewNetwork(NetworkSpec{Topology: "rand", Nodes: 10, Links: 40, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.LibraryFromJSON(data); err == nil {
		t.Error("library accepted by a network of different size")
	}
}

func TestControllerAdvisePlanApply(t *testing.T) {
	net := controlTestNetwork(t)
	lib, set := controlTestLibrary(t, net)
	c, err := net.NewController(lib)
	if err != nil {
		t.Fatal(err)
	}

	st := c.State()
	if st.Active < 0 || len(st.Configs) != lib.Size() || st.ActiveName == "partial-migration" {
		t.Fatalf("initial state %+v", st)
	}

	// Replay every episode; whenever the controller advises a switch,
	// plan and apply it, re-planning until the migration completes.
	for i := 0; i < set.Size(); i++ {
		if err := c.ReplayEpisode(set, i, true); err != nil {
			t.Fatal(err)
		}
		adv := c.Advise()
		if adv.Config < 0 || adv.Config >= lib.Size() {
			t.Fatalf("advice config %d", adv.Config)
		}
		if adv.ShouldSwitch {
			for stage := 0; stage < 50; stage++ {
				plan, err := c.Plan(adv.Config, 3)
				if err != nil {
					t.Fatal(err)
				}
				if len(plan.Steps) > 3 {
					t.Fatalf("plan rewrites %d links, budget 3", len(plan.Steps))
				}
				if err := c.Apply(plan); err != nil {
					t.Fatal(err)
				}
				if plan.Complete {
					break
				}
				if plan.Blocked && len(plan.Steps) == 0 {
					break // cannot make further progress under SLA envelope
				}
			}
			if st := c.State(); st.Active == adv.Config {
				// Migration landed on the advised configuration.
				if st.ActiveName != lib.Names()[adv.Config] {
					t.Fatalf("active name %q", st.ActiveName)
				}
			}
		}
		if err := c.ReplayEpisode(set, i, false); err != nil {
			t.Fatal(err)
		}
	}

	if st := c.State(); len(st.DownLinks) != 0 {
		t.Fatalf("links still down after recovery: %v", st.DownLinks)
	}

	// Event API error paths.
	if err := c.Observe(ControlEvent{Kind: "nope"}); err == nil {
		t.Error("unknown event kind accepted")
	}
	if err := c.Observe(ControlEvent{Kind: "demand-scale", Scale: -1}); err == nil {
		t.Error("negative scale accepted")
	}
	if err := c.Observe(ControlEvent{Kind: "link-down", Link: 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(ControlEvent{Kind: "demand-scale", Scale: 2}); err != nil {
		t.Fatal(err)
	}
	st = c.State()
	if len(st.DownLinks) != 1 || st.DownLinks[0] != 4 {
		t.Fatalf("down links %v", st.DownLinks)
	}
	if err := c.Observe(ControlEvent{Kind: "link-up", Link: 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(ControlEvent{Kind: "demand-scale", Scale: 1}); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Plan(-1, 0); err == nil {
		t.Error("out-of-range plan target accepted")
	}
	if err := c.Apply(nil); err == nil {
		t.Error("nil plan accepted")
	}
	if err := c.Apply(&MigrationPlan{}); err == nil || !strings.Contains(err.Error(), "not produced") {
		t.Errorf("hand-built plan error = %v", err)
	}
}

// TestControllerApplyRejectsStalePlans pins Apply's atomicity contract:
// once any plan mutates the deployed weights, previously computed plans
// (whose verified intermediate states no longer apply) are rejected and
// change nothing.
func TestControllerApplyRejectsStalePlans(t *testing.T) {
	net := controlTestNetwork(t)
	lib, _ := controlTestLibrary(t, net)
	if lib.Size() < 2 {
		t.Skip("library collapsed to one configuration")
	}
	c, err := net.NewController(lib)
	if err != nil {
		t.Fatal(err)
	}
	target := (c.State().Active + 1) % lib.Size()
	planA, err := c.Plan(target, 2)
	if err != nil {
		t.Fatal(err)
	}
	planB, err := c.Plan(target, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(planA.Steps) == 0 {
		t.Skip("configurations identical; nothing to migrate")
	}
	if err := c.Apply(planA); err != nil {
		t.Fatal(err)
	}
	before := c.State()
	if err := c.Apply(planB); err == nil || !strings.Contains(err.Error(), "stale plan") {
		t.Fatalf("stale plan error = %v", err)
	}
	after := c.State()
	if after.Active != before.Active || after.Deployed != before.Deployed {
		t.Error("rejected plan mutated the controller")
	}
	// Re-planning from the new deployed state works.
	planC, err := c.Plan(target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(planC); err != nil {
		t.Fatal(err)
	}
	if st := c.State(); !planC.Complete || st.Active != target {
		t.Fatalf("follow-up plan did not land on target: %+v", st)
	}
}
