package routing

import (
	"math/rand"
	"testing"

	"repro/internal/obsv"
	"repro/internal/topogen"
)

// spanTestSetup installs a default registry with span recording and
// returns it plus an initialized parallel session.
func spanTestSetup(t *testing.T, workers int) (*obsv.Registry, *Session) {
	t.Helper()
	reg := obsv.NewRegistry()
	reg.EnableSpans(1024)
	obsv.SetDefault(reg)
	t.Cleanup(func() { obsv.SetDefault(nil) })

	ev := sessionTestEvaluator(t, topogen.RandKind, 16, 64, 11)
	s := ev.NewSession(nil, -1)
	if workers > 1 {
		s.SetParallelism(workers)
	}
	rng := rand.New(rand.NewSource(12))
	s.Init(RandomWeightSetting(ev.Graph().NumLinks(), 20, rng))
	return reg, s
}

// byName indexes one trace's spans; spans of the same name keep last.
func spanIndex(spans []obsv.SpanRecord) map[string][]obsv.SpanRecord {
	idx := make(map[string][]obsv.SpanRecord)
	for _, sp := range spans {
		idx[sp.Name] = append(idx[sp.Name], sp)
	}
	return idx
}

// TestSessionSpansSilentWithoutContext: a session without SetSpanContext
// must record nothing even with a recorder installed (the planner's
// scoring sessions rely on this to not flood the ring).
func TestSessionSpansSilentWithoutContext(t *testing.T) {
	reg, s := spanTestSetup(t, 1)
	before := reg.Spans().Total()
	s.Apply(0, 3, 4)
	s.Revert()
	setLink(s, 1, false)
	setLink(s, 1, true)
	if got := reg.Spans().Total(); got != before {
		t.Fatalf("recorded %d spans without a span context", got-before)
	}
}

// TestSessionUpdateSpanTree drives one traced weight update and checks
// the span tree: root with classify child and the four region children,
// all in one trace, parents resolvable.
func TestSessionUpdateSpanTree(t *testing.T) {
	reg, s := spanTestSetup(t, 2)
	outer := reg.Spans().Start("test.outer")
	s.SetSpanContext(outer.TraceID(), outer.ID())
	s.Apply(2, 7, 9)
	outer.End()

	spans := reg.Spans().TraceSpans(outer.TraceID())
	idx := spanIndex(spans)
	roots := idx["session.weight"]
	if len(roots) != 1 {
		t.Fatalf("want 1 session.weight span, got %d (trace: %d spans)", len(roots), len(spans))
	}
	root := roots[0]
	if root.Parent != outer.ID() {
		t.Fatalf("update root parent = %d, want outer %d", root.Parent, outer.ID())
	}
	if _, ok := root.Attr("link"); !ok {
		t.Fatal("session.weight missing link attr")
	}
	if len(idx["session.classify"]) != 1 {
		t.Fatalf("want 1 classify child, got %d", len(idx["session.classify"]))
	}
	// Repair-mode breakdown lands on the root when destinations moved.
	n, ok := root.Attr("dests_repair")
	if !ok {
		t.Fatal("session.weight missing dests_repair attr")
	}
	var modes int64
	for _, key := range []string{"repair_increase", "repair_decrease", "repair_batch", "repair_noop"} {
		v, ok := root.Attr(key)
		if !ok {
			t.Fatalf("session.weight missing %s attr", key)
		}
		modes += v
	}
	// Each full-repair destination runs one incremental repair per class
	// touched (never a full Dijkstra — spf_runs counts those separately).
	if n > 0 && modes == 0 {
		t.Fatalf("dests_repair=%d but no repair-mode counts", n)
	}
	// Every span's parent must exist inside the trace (connected tree).
	ids := map[uint64]bool{outer.ID(): true}
	for _, sp := range spans {
		ids[sp.ID] = true
	}
	for _, sp := range spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Fatalf("span %q parent %d not in trace", sp.Name, sp.Parent)
		}
	}
	// With 2 workers the parallel regions must have emitted worker task
	// spans with distinct worker indices.
	workers := idx["session.worker"]
	if len(workers) == 0 {
		t.Fatal("no session.worker spans despite parallelism 2")
	}
	seen := map[int32]bool{}
	for _, wsp := range workers {
		if wsp.Worker < 0 {
			t.Fatalf("worker span without worker index: %+v", wsp)
		}
		if _, ok := wsp.Attr("tasks"); !ok {
			t.Fatalf("worker span missing tasks attr: %+v", wsp)
		}
		seen[wsp.Worker] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("worker lanes seen = %v, want 0 and 1", seen)
	}
}

// TestSessionLinkFlapSpans checks the link-update span and that a
// second update in the same trace reuses the context.
func TestSessionLinkFlapSpans(t *testing.T) {
	reg, s := spanTestSetup(t, 1)
	outer := reg.Spans().Start("test.outer")
	s.SetSpanContext(outer.TraceID(), outer.ID())
	setLink(s, 3, false)
	setLink(s, 3, true)
	outer.End()

	idx := spanIndex(reg.Spans().TraceSpans(outer.TraceID()))
	links := idx["session.link"]
	if len(links) != 2 {
		t.Fatalf("want 2 session.link spans, got %d", len(links))
	}
	for _, sp := range links {
		if v, ok := sp.Attr("link"); !ok || v != 3 {
			t.Fatalf("session.link link attr = %d,%v", v, ok)
		}
	}
	if _, ok := links[0].Attr("up"); ok {
		t.Fatal("down-flip span must not carry up=1")
	}
	if v, ok := links[1].Attr("up"); !ok || v != 1 {
		t.Fatal("up-flip span must carry up=1")
	}
}

// TestSessionDemandSpanNested: a demand update that rebases via Init
// must keep its own root and attach Init's regions to it, not start a
// second root.
func TestSessionDemandSpanNested(t *testing.T) {
	reg, s := spanTestSetup(t, 1)
	s.SetDemandRebaseThreshold(0) // force every demand update down the Init rebase
	outer := reg.Spans().Start("test.outer")
	s.SetSpanContext(outer.TraceID(), outer.ID())
	demD := s.e.demD.Clone().Scale(1.5)
	s.SetDemands(demD, nil)
	outer.End()

	idx := spanIndex(reg.Spans().TraceSpans(outer.TraceID()))
	if n := len(idx["session.demand"]); n != 1 {
		t.Fatalf("want 1 session.demand span, got %d", n)
	}
	if n := len(idx["session.init"]); n != 0 {
		t.Fatalf("nested Init started its own root (%d session.init spans)", n)
	}
	// The rebase's region spans hang off the demand root.
	if n := len(idx["session.fill"]); n != 1 {
		t.Fatalf("want 1 session.fill region under the demand root, got %d", n)
	}
}
