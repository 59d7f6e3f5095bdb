package scenario

import (
	"repro/internal/graph"
	"repro/internal/traffic"
)

// EventKind discriminates telemetry events.
type EventKind int

const (
	// EventLinkDown reports a directed link going down.
	EventLinkDown EventKind = iota
	// EventLinkUp reports a directed link coming back up.
	EventLinkUp
	// EventDemand reports a dense demand-matrix update.
	EventDemand
	// EventDemandDelta reports a sparse demand update: only the changed
	// (source, destination) entries, applied on top of the demand state
	// currently in effect.
	EventDemandDelta
)

// String returns the wire name of the kind.
func (k EventKind) String() string {
	switch k {
	case EventLinkDown:
		return "link-down"
	case EventLinkUp:
		return "link-up"
	case EventDemand:
		return "demand"
	case EventDemandDelta:
		return "demand-delta"
	}
	return "unknown"
}

// Event is one telemetry update in an online stream: a directed link
// going down or coming back, or a demand-matrix update. It is the unit
// the control plane's event-driven selector consumes; scenario sets
// render into event streams via Episodes, so the same generators that
// stress offline robustness sweeps drive online replay.
type Event struct {
	Kind EventKind
	// Link is the directed link index of a link event.
	Link int
	// DemD and DemT replace the base demand matrices on an EventDemand;
	// a nil matrix restores the base traffic of that class.
	DemD, DemT *traffic.Matrix
	// DeltaD and DeltaT are the sparse demand updates of an
	// EventDemandDelta, per class (nil = no change in that class),
	// applied on top of the demand state in effect when the event is
	// observed. Consumers route them through the incremental
	// demand-delta path (routing.Session.ApplyDemandDelta) so a surge
	// touching O(1) destination columns costs O(1) column refreshes
	// instead of a full rebase per candidate configuration.
	DeltaD, DeltaT *traffic.Delta
	// Label records provenance (typically the generating scenario name).
	Label string
}

// DeltaScenario is an optional Scenario extension: scenarios whose
// traffic perturbation is sparse (a hot-spot surge touches O(1) of the
// n destination columns) implement it to expose the perturbation as
// deltas from the base matrices, letting Episodes render demand-delta
// events instead of shipping full matrices. The deltas must agree with
// the dense matrices the scenario's Apply returns: applying them to
// the base state reproduces those matrices bit for bit.
type DeltaScenario interface {
	Scenario
	TrafficDeltas() (dd, dt *traffic.Delta)
}

// Episode is one scenario rendered as a replayable incident: the onset
// events that bring the scenario's perturbation up and the recovery
// events that undo it. Replaying onset then recovery over a base state
// returns exactly to the base state. Episodes are rendered relative to
// the base demand matrices: replayed onto a consumer holding some other
// demand state, dense demand events replace that state wholesale while
// sparse delta events compose with it entry-wise (and recovery then
// returns to the pre-onset state rather than to base) — interleave
// external demand telemetry with episode replay accordingly.
type Episode struct {
	Name            string
	Onset, Recovery []Event
}

// Episodes renders every scenario of a set as an incident episode — the
// event-stream form of the scenario space:
//
//   - failure scenarios become link-down events, one per directed link
//     the scenario kills (a node failure downs the node's incident
//     links; the node's own traffic stays offered and shows up
//     stranded, a strictly harsher stress than the sweep semantics
//     that remove it),
//   - traffic scenarios become one demand-update event, recovered by a
//     base-restoring demand event,
//   - compounds contribute both.
//
// Recovery restores links in reverse onset order. The rendering is
// deterministic: it depends only on the set and the graph.
func Episodes(g *graph.Graph, set Set) []Episode {
	mask := graph.NewMask(g)
	out := make([]Episode, 0, set.Size())
	for _, sc := range set.Scenarios {
		out = append(out, renderEpisode(g, mask, sc))
	}
	return out
}

// EpisodeAt renders only scenario i of the set — O(1) in the set size,
// for replay loops that walk a large set episode by episode.
func EpisodeAt(g *graph.Graph, set Set, i int) Episode {
	return renderEpisode(g, graph.NewMask(g), set.Scenarios[i])
}

func renderEpisode(g *graph.Graph, mask *graph.Mask, sc Scenario) Episode {
	mask.Reset()
	_, demD, demT := sc.Apply(mask)
	ep := Episode{Name: sc.Name()}
	for li := 0; li < g.NumLinks(); li++ {
		if !mask.LinkAlive(li) {
			ep.Onset = append(ep.Onset, Event{Kind: EventLinkDown, Link: li, Label: ep.Name})
		}
	}
	for i := len(ep.Onset) - 1; i >= 0; i-- {
		ep.Recovery = append(ep.Recovery, Event{Kind: EventLinkUp, Link: ep.Onset[i].Link, Label: ep.Name})
	}
	if demD != nil || demT != nil {
		// Sparse rendering when the scenario offers one: onset applies
		// the deltas, recovery applies their exact inverses, returning
		// to the base state bit for bit.
		if ds, ok := sc.(DeltaScenario); ok {
			if dd, dt := ds.TrafficDeltas(); dd.Len()+dt.Len() > 0 {
				ep.Onset = append(ep.Onset, Event{Kind: EventDemandDelta, DeltaD: dd, DeltaT: dt, Label: ep.Name})
				ep.Recovery = append(ep.Recovery, Event{Kind: EventDemandDelta, DeltaD: dd.Inverse(), DeltaT: dt.Inverse(), Label: ep.Name})
				return ep
			}
		}
		ep.Onset = append(ep.Onset, Event{Kind: EventDemand, DemD: demD, DemT: demT, Label: ep.Name})
		ep.Recovery = append(ep.Recovery, Event{Kind: EventDemand, Label: ep.Name})
	}
	return ep
}

// Events flattens Episodes into one stream: each episode's onset
// followed directly by its recovery, in set order.
func Events(g *graph.Graph, set Set) []Event {
	var out []Event
	for _, ep := range Episodes(g, set) {
		out = append(out, ep.Onset...)
		out = append(out, ep.Recovery...)
	}
	return out
}
