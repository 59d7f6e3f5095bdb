package routing

// Session span tracing: when a caller (the selector, an optimizer
// phase) hands the session a trace context, every update — weight move,
// link flip, batch, demand refresh, Init — records a root span with
// its classification outcome and SPF-work breakdown, region child
// spans for the three parallel recompute regions, and per-worker task
// spans, all into the registry's span recorder. With no context set
// (spanTrace == 0, the default — e.g. the migration planner's private
// scoring session, which applies hundreds of candidate moves per plan)
// the session stays span-silent and the per-update cost is one field
// test; with no recorder enabled the cost is one atomic load.

import (
	"repro/internal/obsv"
	"repro/internal/spf"
)

// SetSpanContext links the session's subsequent update spans into an
// existing trace under the given parent span ID, so a telemetry event's
// fan-out and the session recomputes it triggers share one span tree.
// A zero trace (the initial state) disables span recording for this
// session.
func (s *Session) SetSpanContext(trace, parent uint64) {
	s.spanTrace, s.spanParent = trace, parent
}

// beginUpdateSpan opens the root span of one session update, or returns
// nil when the session has no trace context or no registry or recorder
// is installed.
func (s *Session) beginUpdateSpan(name string) *obsv.Span {
	if s.spanTrace == 0 {
		return nil
	}
	m := met.Get()
	if m == nil {
		return nil
	}
	sp := m.reg.Spans().StartAt(name, s.spanTrace, s.spanParent)
	if sp != nil {
		s.spRoot = sp
	}
	return sp
}

// endUpdateSpan closes an update root span opened by beginUpdateSpan.
// Safe to call with nil (the untraced case).
func (s *Session) endUpdateSpan(sp *obsv.Span) {
	if sp == nil {
		return
	}
	s.spRoot = nil
	sp.End()
}

// workerStats sums the cumulative SPF repair counters across the
// session's current workers. Called serially between parallel regions,
// while all workers are idle; diffing two sums around region 1 yields
// the SPF work (repairs, fresh runs, changed nodes) of one update.
func (s *Session) workerStats() spf.RepairStats {
	var sum spf.RepairStats
	for _, wk := range s.workers {
		sum = sum.Add(wk.ws.Stats())
	}
	return sum
}

// regionSpanNames maps region identifiers (parallel.go) to span names.
var regionSpanNames = [...]string{
	regionDests:  "session.dests",
	regionInit:   "session.fill",
	regionLinks:  "session.resum",
	regionLambda: "session.lambda",
}
