package ctrl

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// Selector is the control-plane core of one network. It tracks the
// network's current conditions (which links are down, which demand
// matrices are in effect) through a telemetry stream and keeps one
// persistent routing.Session per library configuration, so every event
// re-scores all candidates incrementally — a link event touches only
// the destinations whose routing it can change, per candidate, and a
// demand event only the destination columns whose demands actually
// moved (sparse demand-delta events never materialize full matrices at
// all) — and Advise is a constant-time scan of cached, bit-exact
// results. Telemetry enters through ObserveBatch alone, which routes
// each event by class: link events to SetLinkStates, dense demand
// events to SetDemands, demand deltas to ApplyDemandDelta.
//
// The selector also owns the deployment: the weights in force and the
// library configuration they equal. Plan computes a bounded-change
// migration from the deployed weights toward a configuration under the
// observed conditions and Apply commits it; Checkpoint hands over the
// restorable state and Restore takes it back (internal/fleet builds
// its crash recovery on the pair).
//
// A Selector is safe for concurrent use: one mutex serializes every
// method but Validate, which reads only the network's shape and so
// lets admission paths reject malformed batches without waiting for
// selector work.
type Selector struct {
	ev  *routing.Evaluator
	lib *Library

	mu       sync.Mutex
	sessions []*routing.Session
	down     []bool
	ndown    int
	// demD/demT are the demand matrices currently in effect (nil = base
	// traffic of that class). The owns flags report whether the selector
	// holds private copies: demand-delta events mutate the current
	// state, so matrices adopted from EventDemand payloads are cloned
	// before the first delta touches them.
	demD, demT         *traffic.Matrix
	ownsDemD, ownsDemT bool
	events             int
	// Span causality: the trace and root-span IDs of the most recent
	// traced ObserveBatch fan-out, so Advise, Plan and Apply can link
	// their decisions to the telemetry event that prompted them. Zero
	// while span recording is disabled.
	lastTrace, lastRoot uint64
	// lastViol is the best candidate's violation count at the previous
	// Advise, so SLA flight captures fire on degradation, not on every
	// advise of a persisting violation.
	lastViol int
	// fan runs every candidate fan-out (see each).
	fan par.Pool
	// deployed is the weight setting in force; active is the library
	// configuration it equals, -1 mid-migration.
	deployed *routing.WeightSetting
	active   int
}

// NewSelector builds a selector over the library, basing every
// candidate session on the intact topology and base traffic, and
// deploys the configuration that scores best there.
func NewSelector(ev *routing.Evaluator, lib *Library) (*Selector, error) {
	if lib.Size() == 0 {
		return nil, fmt.Errorf("ctrl: empty library")
	}
	m := ev.Graph().NumLinks()
	if lib.Links() != m {
		return nil, fmt.Errorf("ctrl: library covers %d links, network has %d", lib.Links(), m)
	}
	s := &Selector{
		ev:   ev,
		lib:  lib,
		down: make([]bool, m),
	}
	s.sessions = make([]*routing.Session, lib.Size())
	for i, e := range lib.Entries {
		ses := ev.NewScenarioSession(graph.NewMask(ev.Graph()), -1, nil, nil)
		ses.Init(e.W)
		s.sessions[i] = ses
	}
	s.active = s.advise().Config
	s.deployed = lib.Entries[s.active].W.Clone()
	return s, nil
}

// downLinks returns the directed links currently marked down, ascending.
func (s *Selector) downLinks() []int {
	out := make([]int, 0, s.ndown)
	for li, d := range s.down {
		if d {
			out = append(out, li)
		}
	}
	return out
}

// mask returns a fresh mask reflecting the observed link state, for the
// evaluations (migration planning, the deployed score) that need the
// conditions independently of the candidate sessions.
func (s *Selector) mask() *graph.Mask {
	mask := graph.NewMask(s.ev.Graph())
	for li, d := range s.down {
		if d {
			mask.FailLink(li)
		}
	}
	return mask
}

// Validate checks an event's shape against the network — link index in
// range, demand matrices sized to the node count, delta entries valid —
// without touching any state or taking the lock. ObserveBatch validates
// a whole batch upfront so a malformed event aborts before any
// mutation.
func (s *Selector) Validate(e scenario.Event) error {
	n := s.ev.Graph().NumNodes()
	switch e.Kind {
	case scenario.EventLinkDown, scenario.EventLinkUp:
		if e.Link < 0 || e.Link >= len(s.down) {
			return fmt.Errorf("ctrl: link %d out of range [0,%d)", e.Link, len(s.down))
		}
	case scenario.EventDemand:
		if e.DemD != nil && e.DemD.Size() != n {
			return fmt.Errorf("ctrl: demand matrix size %d does not match %d nodes", e.DemD.Size(), n)
		}
		if e.DemT != nil && e.DemT.Size() != n {
			return fmt.Errorf("ctrl: demand matrix size %d does not match %d nodes", e.DemT.Size(), n)
		}
	case scenario.EventDemandDelta:
		if err := e.DeltaD.Validate(n); err != nil {
			return fmt.Errorf("ctrl: %w", err)
		}
		if err := e.DeltaT.Validate(n); err != nil {
			return fmt.Errorf("ctrl: %w", err)
		}
	default:
		return fmt.Errorf("ctrl: unknown event kind %d", e.Kind)
	}
	return nil
}

// ObserveBatch folds an ordered batch of telemetry events into every
// candidate session. It is the selector's only telemetry entry point; a
// single event is a batch of one. The whole batch is validated before
// any mutation (all-or-nothing on malformed input). Each run of
// consecutive link events becomes one SetLinkStates fan-out per
// candidate (one classification and one multi-link repair pass per
// affected destination). Dense demand events diff against the current
// matrices inside each session (SetDemands), so only changed
// destination columns recompute; sparse demand-delta events skip the
// dense matrices entirely (ApplyDemandDelta). Events that restate the
// conditions in effect — link states already observed, demand matrices
// equal to the ones in effect, deltas restating current values — are
// deduplicated here and never fan out. The resulting selector and
// session state is bit-identical however a stream is split into
// batches. The trace/parent span IDs (zero when untraced) root the
// batch's spans under the caller's trace — the ingest delivery span,
// for batches arriving through internal/ingest.
func (s *Selector) ObserveBatch(events []scenario.Event, trace, parent uint64) error {
	for i := range events {
		if err := s.Validate(events[i]); err != nil {
			return fmt.Errorf("ctrl: batch event %d: %w", i, err)
		}
	}
	if len(events) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := met.Get()
	var batchSpan *obsv.Span
	if m != nil && len(events) > 1 {
		batchSpan = m.reg.Spans().StartAt("observe.batch", trace, parent)
		batchSpan.SetAttr("events", int64(len(events)))
		trace, parent = batchSpan.TraceID(), batchSpan.ID()
	}
	for i := 0; i < len(events); {
		if !isLinkEvent(events[i]) {
			s.observeDemand(m, events[i], trace, parent)
			i++
			continue
		}
		j := i + 1
		for j < len(events) && isLinkEvent(events[j]) {
			j++
		}
		s.observeLinks(m, events[i:j], trace, parent)
		i = j
	}
	batchSpan.End()
	return nil
}

func isLinkEvent(e scenario.Event) bool {
	return e.Kind == scenario.EventLinkDown || e.Kind == scenario.EventLinkUp
}

// observeLinks applies a run of validated link events as one
// SetLinkStates fan-out per candidate. Events restating the observed
// link state are deduplicated; the Events counter advances by the
// number of effective transitions.
func (s *Selector) observeLinks(m *metrics, run []scenario.Event, trace, parent uint64) {
	changes := make([]routing.LinkStateChange, 0, len(run))
	for _, e := range run {
		up := e.Kind == scenario.EventLinkUp
		if s.down[e.Link] != up {
			if m != nil {
				m.dedup[classLink].Inc()
			}
			continue // already in the observed state
		}
		s.down[e.Link] = !up
		if up {
			s.ndown--
		} else {
			s.ndown++
		}
		changes = append(changes, routing.LinkStateChange{Link: e.Link, Up: up})
	}
	if len(changes) == 0 {
		return
	}
	root, t0 := s.beginObserve(m, classLink, trace, parent)
	root.SetAttr("links", int64(len(changes)))
	if len(changes) == 1 {
		root.SetAttr("link", int64(changes[0].Link))
		if changes[0].Up {
			root.SetAttr("up", 1)
		}
	}
	s.each(func(ses *routing.Session) { ses.SetLinkStates(changes) })
	s.endObserve(m, classLink, root, t0, len(changes), func() string {
		if len(changes) == 1 {
			return fmt.Sprintf("link %d up=%v (down links: %d)", changes[0].Link, changes[0].Up, s.ndown)
		}
		return fmt.Sprintf("%d link changes (down links: %d)", len(changes), s.ndown)
	})
}

// observeDemand folds one validated demand or demand-delta event into
// the selector's demand state and, unless it restates the state in
// effect, into every candidate session.
func (s *Selector) observeDemand(m *metrics, e scenario.Event, trace, parent uint64) {
	class, fn := classDemand, func(ses *routing.Session) { ses.SetDemands(e.DemD, e.DemT) }
	if e.Kind == scenario.EventDemandDelta {
		class, fn = classDelta, func(ses *routing.Session) { ses.ApplyDemandDelta(e.DeltaD, e.DeltaT) }
	}
	if !s.foldDemand(e) {
		if m != nil {
			m.dedup[class].Inc()
		}
		return
	}
	root, t0 := s.beginObserve(m, class, trace, parent)
	if class == classDelta {
		root.SetAttr("entries", int64(e.DeltaD.Len()+e.DeltaT.Len()))
	}
	s.each(fn)
	s.endObserve(m, class, root, t0, 1, func() string {
		if class == classDemand {
			return "dense demand update"
		}
		return fmt.Sprintf("demand delta (%d+%d entries)", e.DeltaD.Len(), e.DeltaT.Len())
	})
}

// foldDemand applies a demand or demand-delta event to the selector's
// demand state and reports whether that state changed.
func (s *Selector) foldDemand(e scenario.Event) bool {
	if e.Kind == scenario.EventDemand {
		if s.effectiveD().Equal(s.effective(e.DemD, s.ev.DemandDelay())) &&
			s.effectiveT().Equal(s.effective(e.DemT, s.ev.DemandThroughput())) {
			return false
		}
		s.demD, s.demT = e.DemD, e.DemT
		s.ownsDemD, s.ownsDemT = false, false
		return true
	}
	chgD := deltaChanges(s.effectiveD(), e.DeltaD)
	chgT := deltaChanges(s.effectiveT(), e.DeltaT)
	if chgD {
		if !s.ownsDemD {
			s.demD = s.effectiveD().Clone()
			s.ownsDemD = true
		}
		s.demD.ApplyDelta(e.DeltaD)
	}
	if chgT {
		if !s.ownsDemT {
			s.demT = s.effectiveT().Clone()
			s.ownsDemT = true
		}
		s.demT.ApplyDelta(e.DeltaT)
	}
	return chgD || chgT
}

// beginObserve starts the fan-out of one effective (non-deduplicated)
// update of the given event class: it opens the class's observe span
// and points every candidate session's span context at it, so the
// whole fan-out lands in one trace, and starts the latency clock. With
// a nonzero trace/parent the span joins the caller's trace instead of
// rooting a fresh one. Both results are zero while telemetry is off;
// the span is nil when span recording is disabled.
func (s *Selector) beginObserve(m *metrics, class int, trace, parent uint64) (*obsv.Span, time.Time) {
	if m == nil {
		return nil, time.Time{}
	}
	t0 := time.Now()
	root := m.reg.Spans().StartAt(observeSpanNames[class], trace, parent)
	if root == nil {
		return nil, t0
	}
	s.lastTrace, s.lastRoot = root.TraceID(), root.ID()
	for _, ses := range s.sessions {
		ses.SetSpanContext(s.lastTrace, s.lastRoot)
	}
	return root, t0
}

// endObserve is the shared epilogue of every fan-out beginObserve
// started: it closes the span, counts the n events the fan-out applied,
// and records the class's latency, a decision-trace line built from
// detail, and a flight capture when the latency trips the recorder's
// threshold.
func (s *Selector) endObserve(m *metrics, class int, root *obsv.Span, t0 time.Time, n int, detail func() string) {
	root.End()
	s.events += n
	if m == nil {
		return
	}
	dur := time.Since(t0)
	m.observe[class].Observe(dur.Seconds())
	msg := fmt.Sprintf("%s trace=%d", detail(), s.lastTrace)
	m.trace.Record("observe", msg)
	fr := m.reg.Flight()
	if !fr.ExceedsLatency(dur) {
		return
	}
	fr.Capture(obsv.FlightRecord{
		Trace:    s.lastTrace,
		Kind:     "observe",
		Reason:   "latency",
		Detail:   msg,
		Duration: dur,
		Spans:    m.reg.Spans().TraceSpans(s.lastTrace),
	})
}

// effective resolves a possibly-nil override matrix to the matrix in
// effect (nil means the base traffic of that class).
func (s *Selector) effective(m, base *traffic.Matrix) *traffic.Matrix {
	if m == nil {
		return base
	}
	return m
}

func (s *Selector) effectiveD() *traffic.Matrix { return s.effective(s.demD, s.ev.DemandDelay()) }
func (s *Selector) effectiveT() *traffic.Matrix { return s.effective(s.demT, s.ev.DemandThroughput()) }

// deltaChanges reports whether applying d to cur would change any
// value.
func deltaChanges(cur *traffic.Matrix, d *traffic.Delta) bool {
	if d == nil {
		return false
	}
	for _, e := range d.Entries {
		if cur.At(e.S, e.T) != e.New {
			return true
		}
	}
	return false
}

// each applies fn to every candidate session on GOMAXPROCS workers: the
// sessions are independent, and each owns all state fn touches, so the
// result is deterministic regardless of scheduling. The candidates stay
// serial inside (routing.Session.SetParallelism): this fan-out is the
// parallelism.
func (s *Selector) each(fn func(*routing.Session)) {
	s.fan.Run(runtime.GOMAXPROCS(0), len(s.sessions), func(_, i int) { fn(s.sessions[i]) })
}

// Advice reports the configuration the selector would run now.
type Advice struct {
	// Config and Name identify the best library configuration for the
	// current conditions; Result is its bit-exact score there.
	Config int
	Name   string
	Result routing.Result
	// Active is the deployed configuration (-1 mid-migration);
	// ShouldSwitch is Config != Active.
	Active       int
	ShouldSwitch bool
}

// Advise returns the library configuration with the best objective
// (lexicographic ⟨Λ, Φ⟩) under the current conditions; ties go to the
// lowest index. The evaluation is bit-identical to a from-scratch
// Evaluator run of that configuration under the observed conditions.
func (s *Selector) Advise() Advice {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.advise()
}

func (s *Selector) advise() Advice {
	m := met.Get()
	var sp *obsv.Span
	if m != nil {
		sp = m.reg.Spans().StartAt("advise", s.lastTrace, s.lastRoot)
	}
	best := 0
	bestRes := s.sessions[0].Result()
	for i := 1; i < len(s.sessions); i++ {
		if res := s.sessions[i].Result(); res.Cost.Less(bestRes.Cost) {
			best, bestRes = i, res
		}
	}
	sp.SetAttr("config", int64(best))
	sp.SetAttr("violations", int64(bestRes.Violations))
	sp.End()
	if m != nil {
		m.advises.Inc()
		msg := fmt.Sprintf("config %d (violations=%d maxUtil=%.3f) trace=%d",
			best, bestRes.Violations, bestRes.MaxUtil, s.lastTrace)
		m.trace.Record("advise", msg)
		if bestRes.Violations > 0 && bestRes.Violations > s.lastViol {
			fr := m.reg.Flight()
			fr.Capture(obsv.FlightRecord{
				Trace:  s.lastTrace,
				Kind:   "advise",
				Reason: "sla",
				Detail: msg,
				Spans:  m.reg.Spans().TraceSpans(s.lastTrace),
			})
		}
	}
	s.lastViol = bestRes.Violations
	return Advice{
		Config:       best,
		Name:         s.lib.Entries[best].Name,
		Result:       bestRes,
		Active:       s.active,
		ShouldSwitch: best != s.active,
	}
}
