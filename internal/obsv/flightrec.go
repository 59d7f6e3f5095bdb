package obsv

import (
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecord is one captured anomaly: the update or decision that
// tripped the recorder, why, and the complete span tree of its trace so
// post-hoc debugging needs no reproduction. Counts such as affected
// destinations and the SPF-work breakdown travel as span attributes
// inside Spans.
type FlightRecord struct {
	Seq      uint64        `json:"seq"`
	Time     time.Time     `json:"time"`
	Trace    uint64        `json:"trace"`
	Kind     string        `json:"kind"`   // observe | advise | plan
	Reason   string        `json:"reason"` // latency | sla | infeasible
	Detail   string        `json:"detail"`
	Duration time.Duration `json:"duration_ns"`
	Spans    []SpanRecord  `json:"spans,omitempty"`
}

// DefaultFlightCapacity is the flight-recorder ring size of NewRegistry.
const DefaultFlightCapacity = 64

// DefaultFlightLatency is the initial latency capture threshold.
const DefaultFlightLatency = 100 * time.Millisecond

// FlightRecorder is a bounded ring of FlightRecords. Captures are rare
// by construction (anomalies only), so the ring copies freely; the
// fast-path question "should I capture?" is one atomic load via
// ExceedsLatency. All methods are safe for concurrent use and no-ops on
// a nil receiver.
type FlightRecorder struct {
	threshold atomic.Int64 // ns; 0 disables latency capture
	mu        sync.Mutex
	buf       []FlightRecord
	next      uint64
}

// NewFlightRecorder returns a ring retaining the last `capacity`
// records (DefaultFlightCapacity when capacity <= 0) with the default
// latency threshold.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	f := &FlightRecorder{buf: make([]FlightRecord, capacity)}
	f.threshold.Store(int64(DefaultFlightLatency))
	return f
}

// SetLatencyThreshold configures the slow-update capture bound; 0
// disables latency-triggered capture (SLA/feasibility captures remain).
func (f *FlightRecorder) SetLatencyThreshold(d time.Duration) {
	if f != nil {
		f.threshold.Store(int64(d))
	}
}

// LatencyThreshold returns the current capture bound (0 when disabled
// or on a nil receiver).
func (f *FlightRecorder) LatencyThreshold() time.Duration {
	if f == nil {
		return 0
	}
	return time.Duration(f.threshold.Load())
}

// ExceedsLatency reports whether a duration should trip a latency
// capture — the one cheap check instrumentation performs per update.
func (f *FlightRecorder) ExceedsLatency(d time.Duration) bool {
	if f == nil {
		return false
	}
	th := f.threshold.Load()
	return th > 0 && int64(d) >= th
}

// Capture appends one record, stamping Seq and Time.
func (f *FlightRecorder) Capture(rec FlightRecord) {
	if f == nil {
		return
	}
	rec.Time = time.Now()
	f.mu.Lock()
	rec.Seq = f.next
	f.buf[f.next%uint64(len(f.buf))] = rec
	f.next++
	f.mu.Unlock()
}

// Total returns how many records were ever captured, including evicted
// ones (0 on a nil receiver).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Records returns the retained records, oldest first.
func (f *FlightRecorder) Records() []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	capacity := uint64(len(f.buf))
	n := f.next
	if n > capacity {
		n = capacity
	}
	out := make([]FlightRecord, 0, n)
	for i := f.next - n; i < f.next; i++ {
		out = append(out, f.buf[i%capacity])
	}
	return out
}
