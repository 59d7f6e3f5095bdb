package scenario

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

func eventsTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	g, err := topogen.Generate(topogen.Spec{Kind: topogen.RandKind, Nodes: 8, DirectedLinks: 32}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEpisodesLinkFailures(t *testing.T) {
	g := eventsTestGraph(t)
	eps := Episodes(g, SingleLinkFailures(g))
	if len(eps) != g.NumLinks() {
		t.Fatalf("%d episodes, want %d", len(eps), g.NumLinks())
	}
	for li, ep := range eps {
		if len(ep.Onset) != 1 || ep.Onset[0].Kind != EventLinkDown || ep.Onset[0].Link != li {
			t.Fatalf("episode %d onset = %+v", li, ep.Onset)
		}
		if len(ep.Recovery) != 1 || ep.Recovery[0].Kind != EventLinkUp || ep.Recovery[0].Link != li {
			t.Fatalf("episode %d recovery = %+v", li, ep.Recovery)
		}
	}
}

func TestEpisodesNodeFailureDownsIncidentLinks(t *testing.T) {
	g := eventsTestGraph(t)
	eps := Episodes(g, NodeFailures(g))
	for v, ep := range eps {
		incident := 0
		for li := 0; li < g.NumLinks(); li++ {
			l := g.Link(li)
			if int(l.From) == v || int(l.To) == v {
				incident++
			}
		}
		if len(ep.Onset) != incident {
			t.Fatalf("node %d episode downs %d links, want %d", v, len(ep.Onset), incident)
		}
		// Recovery must mirror onset in reverse.
		for i, e := range ep.Recovery {
			if e.Kind != EventLinkUp || e.Link != ep.Onset[len(ep.Onset)-1-i].Link {
				t.Fatalf("node %d recovery not reversed onset", v)
			}
		}
	}
}

func TestEpisodesSurgeAndCompound(t *testing.T) {
	g := eventsTestGraph(t)
	demD, demT := traffic.Gravity(g.NumNodes(), 1, 0.3, rand.New(rand.NewSource(4)))
	surges := HotspotSurges(demD, demT, traffic.DefaultHotspot(true), 3, 9)
	eps := Episodes(g, surges)
	if len(eps) != 3 {
		t.Fatalf("%d surge episodes", len(eps))
	}
	for i, ep := range eps {
		// Hot-spot surges render sparsely: a demand-delta onset, with no
		// dense matrices attached, whose deltas agree with the matrices
		// the scenario's own Apply returns, recovered by the exact
		// inverse deltas.
		if len(ep.Onset) != 1 {
			t.Fatalf("surge onset = %+v", ep.Onset)
		}
		on := ep.Onset[0]
		if on.Kind != EventDemandDelta || on.DemD != nil || on.DemT != nil ||
			on.DeltaD.Len() == 0 || on.DeltaT.Len() == 0 {
			t.Fatalf("surge onset not a pure sparse delta: %+v", on)
		}
		_, wantD, wantT := surges.Scenarios[i].Apply(graph.NewMask(g))
		surgedD := demD.Clone().ApplyDelta(on.DeltaD)
		surgedT := demT.Clone().ApplyDelta(on.DeltaT)
		if !surgedD.Equal(wantD) || !surgedT.Equal(wantT) {
			t.Fatal("onset deltas disagree with the scenario's Apply matrices")
		}
		rec := ep.Recovery[len(ep.Recovery)-1]
		if rec.Kind != EventDemandDelta || rec.DemD != nil || rec.DemT != nil {
			t.Fatalf("surge recovery must be a pure inverse delta, got %+v", rec)
		}
		if !surgedD.ApplyDelta(rec.DeltaD).Equal(demD) || !surgedT.ApplyDelta(rec.DeltaT).Equal(demT) {
			t.Fatal("recovery deltas do not restore the base matrices")
		}
	}

	comp := WithTraffic(DualLinkFailures(g, 5, 7), demD.Clone().Scale(2), nil, "+surge")
	for _, ep := range Episodes(g, comp) {
		downs, demands := 0, 0
		for _, e := range ep.Onset {
			switch e.Kind {
			case EventLinkDown:
				downs++
			case EventDemand:
				demands++
			}
		}
		if downs != 2 || demands != 1 {
			t.Fatalf("compound episode onset: %d downs, %d demand events", downs, demands)
		}
	}
}

func TestEventsDeterministic(t *testing.T) {
	g := eventsTestGraph(t)
	set := Merge("mix", SingleLinkFailures(g), NodeFailures(g))
	a := Events(g, set)
	b := Events(g, set)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Events not deterministic")
	}
	if len(a) == 0 {
		t.Fatal("empty event stream")
	}
}
