// Package obsv is the engine-wide observability layer: lock-free
// counters and gauges, fixed-bucket histograms, a bounded decision-trace
// ring buffer, a hierarchical span recorder with an anomaly flight
// recorder (plus a Chrome trace-event exporter), Go runtime
// introspection metrics, and a Registry that renders everything as
// Prometheus text exposition or a JSON snapshot. It has no dependencies
// outside the standard library.
//
// Instrumented packages do not take a registry parameter; they fetch
// their metric handles through a package-default registry (SetDefault)
// via a View, which caches the handles per registry. When no default is
// installed — the normal state for library consumers that never asked
// for telemetry — View.Get costs a single atomic load and returns nil,
// and every handle method is a no-op on a nil receiver, so the
// uninstrumented hot paths pay one predictable branch. See DESIGN.md
// ("Observability") for the metric naming scheme and the overhead
// budget.
package obsv

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing, lock-free metric. All methods
// are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Set overwrites the count. It exists for scrape-time mirrors of
// counters maintained elsewhere (e.g. a controller's event count);
// direct instrumentation should use Inc/Add.
func (c *Counter) Set(n int64) {
	if c != nil {
		c.v.Store(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a lock-free float64 gauge. All methods are no-ops on a nil
// receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds v (CAS loop).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// atomicFloat accumulates float64 values lock-free (histogram sums).
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) value() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket, lock-free histogram. Buckets are
// "less-or-equal" upper bounds, ascending; observations above the last
// bound land in the implicit +Inf bucket. All methods are no-ops on a
// nil receiver.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomicFloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveSince records the seconds elapsed since t0 — the latency idiom.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0).Seconds())
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.value()
}

// LatencyBuckets covers the engine's event latencies: 50µs to 10s,
// roughly ×2.5 per step. In seconds.
var LatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// SizeBuckets covers set-size distributions (affected sets, changed
// columns, plan steps): powers of two up to 4096.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// Label is one name/value pair of a metric series.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind is a metric family's type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled instance of a family; exactly one of the value
// fields is used, per the family's kind.
type series struct {
	labels []Label // sorted by key
	sig    string  // rendered label signature, the series identity
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one metric name: help text, kind, and its series.
type family struct {
	name, help string
	kind       Kind
	bounds     []float64 // histogram families only
	series     map[string]*series
	order      []*series // registration order; guarded by Registry.mu
}

// Registry holds metric families and the decision-trace ring. All
// methods are safe for concurrent use and no-ops (returning nil
// handles) on a nil receiver.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	trace    *Trace
	flight   *FlightRecorder
	spans    atomic.Pointer[SpanRecorder]
}

// DefaultTraceCapacity is the decision-trace ring size of NewRegistry.
const DefaultTraceCapacity = 512

// NewRegistry returns an empty registry with a DefaultTraceCapacity
// decision-trace ring.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		trace:    NewTrace(DefaultTraceCapacity),
		flight:   NewFlightRecorder(DefaultFlightCapacity),
	}
}

// Trace returns the registry's decision-trace ring (nil on a nil
// registry, and every Trace method is nil-safe in turn).
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// Flight returns the registry's anomaly flight recorder (nil on a nil
// registry; every FlightRecorder method is nil-safe in turn).
func (r *Registry) Flight() *FlightRecorder {
	if r == nil {
		return nil
	}
	return r.flight
}

// EnableSpans attaches a span recorder with the given ring capacity
// (DefaultSpanCapacity when <= 0) and returns it. Until this is called,
// Spans returns nil and every span call site short-circuits on a nil
// check — the disabled cost is the one atomic load of Spans. Calling it
// again replaces the recorder (in-flight spans commit to the old ring).
func (r *Registry) EnableSpans(capacity int) *SpanRecorder {
	if r == nil {
		return nil
	}
	rec := NewSpanRecorder(capacity)
	r.spans.Store(rec)
	return rec
}

// Spans returns the registry's span recorder, nil until EnableSpans —
// the single atomic load the untraced path pays. Nil-safe.
func (r *Registry) Spans() *SpanRecorder {
	if r == nil {
		return nil
	}
	return r.spans.Load()
}

// lookup finds or creates the (family, series) pair, enforcing kind
// consistency. Registration is idempotent: the same name and labels
// return the same handles.
func (r *Registry) lookup(name, help string, kind Kind, bounds []float64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obsv: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	ls := append([]Label(nil), labels...)
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	sig := labelSignature(ls)
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: ls, sig: sig}
		switch kind {
		case KindCounter:
			s.c = &Counter{}
		case KindGauge:
			s.g = &Gauge{}
		case KindHistogram:
			s.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Int64, len(f.bounds)+1)}
		}
		f.series[sig] = s
		f.order = append(f.order, s)
	}
	return s
}

// Counter registers (or finds) a counter series. Nil registries return
// a nil (no-op) handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindCounter, nil, labels).c
}

// Gauge registers (or finds) a gauge series. Nil registries return a
// nil (no-op) handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindGauge, nil, labels).g
}

// Histogram registers (or finds) a histogram series with the given
// ascending "le" bucket bounds (the +Inf bucket is implicit; bounds are
// fixed by the first registration of the family). Nil registries return
// a nil (no-op) handle.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		panic("obsv: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obsv: histogram bounds must be strictly ascending")
		}
	}
	return r.lookup(name, help, KindHistogram, bounds, labels).h
}

// renderFamily is one family as a render sees it: its series copied
// under Registry.mu and sorted by label signature.
type renderFamily struct {
	*family
	sorted []*series
}

// snapshotFamilies returns the families sorted by name, each with its
// series sorted by label signature — the deterministic render order.
// Each call sorts its own copies, so concurrent renders and
// registrations never share a slice.
func (r *Registry) snapshotFamilies() []renderFamily {
	r.mu.Lock()
	fams := make([]renderFamily, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, renderFamily{family: f, sorted: append([]*series(nil), f.order...)})
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		sort.Slice(f.sorted, func(i, j int) bool { return f.sorted[i].sig < f.sorted[j].sig })
	}
	return fams
}

// Package-default registry. Nil (the initial state) disables all
// instrumentation.
var defaultRegistry atomic.Pointer[Registry]

// SetDefault installs r as the package-default registry every View
// resolves against. Passing nil disables instrumentation again.
func SetDefault(r *Registry) { defaultRegistry.Store(r) }

// Default returns the package-default registry, nil when telemetry is
// disabled — the single atomic load the uninstrumented path pays.
func Default() *Registry { return defaultRegistry.Load() }

// View caches a package's metric-handle bundle against the current
// default registry. Build runs at most once per registry; Get returns
// nil while no default registry is installed, so callers guard their
// instrumentation with one nil check.
type View[T any] struct {
	build func(*Registry) *T
	mu    sync.Mutex
	cur   atomic.Pointer[viewBinding[T]]
}

type viewBinding[T any] struct {
	reg *Registry
	val *T
}

// NewView declares a handle bundle built lazily against whatever
// default registry is installed at use time.
func NewView[T any](build func(*Registry) *T) *View[T] {
	return &View[T]{build: build}
}

// Get returns the bundle bound to the current default registry, or nil
// when none is installed.
func (v *View[T]) Get() *T {
	r := Default()
	if r == nil {
		return nil
	}
	if b := v.cur.Load(); b != nil && b.reg == r {
		return b.val
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if b := v.cur.Load(); b != nil && b.reg == r {
		return b.val
	}
	val := v.build(r)
	v.cur.Store(&viewBinding[T]{reg: r, val: val})
	return val
}
