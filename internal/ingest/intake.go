package ingest

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/obsv"
	"repro/internal/scenario"
)

// ErrFull rejects an Enqueue that would overflow the queue's capacity.
// The whole batch is shed — admission is all-or-nothing, so accepted
// and shed event counts always reconcile exactly with events offered.
var ErrFull = errors.New("ingest: intake queue full")

// ErrClosed rejects an Enqueue after Close has begun.
var ErrClosed = errors.New("ingest: intake closed")

// Sink consumes delivered (coalesced) event batches. The trace and
// parent span IDs carry the delivery span's context so selector spans
// join the ingest trace; both are zero when span recording is off.
type Sink interface {
	ObserveBatch(events []scenario.Event, trace, parent uint64) error
}

// Config bounds and tunes an Intake.
type Config struct {
	// Capacity is the maximum number of queued events (not batches);
	// an Enqueue that would exceed it is shed whole. Default 4096.
	Capacity int
	// MaxBatch caps the events drained into one sink delivery.
	// Default 1024.
	MaxBatch int
	// RetryAfter is the backpressure hint callers should surface (the
	// daemon turns it into an HTTP Retry-After header). Default 1s.
	RetryAfter time.Duration
	// Tap, when set, observes every delivered batch (pre-coalescing)
	// from the delivery goroutine. Tests use it to audit exactly which
	// accepted events reached delivery.
	Tap func(events []scenario.Event)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Capacity <= 0 {
		out.Capacity = 4096
	}
	if out.MaxBatch <= 0 {
		out.MaxBatch = 1024
	}
	if out.RetryAfter <= 0 {
		out.RetryAfter = time.Second
	}
	return out
}

// Result reports an accepted Enqueue: how many events were admitted
// and the sequence number of the last one (sequence numbers increase
// by one per accepted event, starting at 1).
type Result struct {
	Accepted int
	LastSeq  uint64
}

// Stats is a consistent snapshot of the intake's counters.
type Stats struct {
	Accepted  uint64 // events admitted by Enqueue
	Shed      uint64 // events rejected with ErrFull
	Delivered uint64 // events handed to the sink (pre-coalescing)
	Depth     int    // events currently queued
}

type pending struct {
	ev scenario.Event
	at time.Time
}

// Intake is the bounded asynchronous telemetry queue: Enqueue admits
// batches under a capacity bound, and a single delivery goroutine
// drains the queue in batches of up to MaxBatch events, coalesces
// them, and hands them to the sink. All methods are safe for
// concurrent use.
type Intake struct {
	cfg  Config
	sink Sink

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []pending
	head     int
	paused   bool
	closed   bool
	inflight bool
	seq      uint64
	accepted uint64
	shed     uint64
	deliv    uint64
	sinkErr  error

	stopped chan struct{}
}

// New builds an intake draining into sink and starts its delivery
// goroutine. Call Close to drain and stop it.
func New(cfg Config, sink Sink) *Intake {
	q := &Intake{
		cfg:     cfg.withDefaults(),
		sink:    sink,
		stopped: make(chan struct{}),
	}
	q.cond = sync.NewCond(&q.mu)
	go q.run()
	return q
}

// RetryAfter returns the configured backpressure hint.
func (q *Intake) RetryAfter() time.Duration { return q.cfg.RetryAfter }

// Capacity returns the queue's event capacity.
func (q *Intake) Capacity() int { return q.cfg.Capacity }

func (q *Intake) depthLocked() int { return len(q.queue) - q.head }

// Depth returns the number of events currently queued (events grabbed
// by an in-flight delivery no longer count).
func (q *Intake) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depthLocked()
}

// Stats returns a consistent snapshot of the intake's counters.
func (q *Intake) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{Accepted: q.accepted, Shed: q.shed, Delivered: q.deliv, Depth: q.depthLocked()}
}

// Err returns the first sink error recorded by a delivery, if any.
func (q *Intake) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sinkErr
}

// Enqueue admits the batch whole or not at all: if the events fit
// under Capacity they are queued and delivered asynchronously in
// order; otherwise nothing is queued and ErrFull is returned so the
// caller can apply backpressure (HTTP 429 + Retry-After upstream).
func (q *Intake) Enqueue(events []scenario.Event) (Result, error) {
	if len(events) == 0 {
		return Result{}, nil
	}
	m := met.Get()
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return Result{}, ErrClosed
	}
	if q.depthLocked()+len(events) > q.cfg.Capacity {
		q.shed += uint64(len(events))
		q.mu.Unlock()
		if m != nil {
			m.shed.Add(int64(len(events)))
		}
		return Result{}, ErrFull
	}
	now := time.Now()
	for _, e := range events {
		q.queue = append(q.queue, pending{ev: e, at: now})
	}
	q.seq += uint64(len(events))
	q.accepted += uint64(len(events))
	res := Result{Accepted: len(events), LastSeq: q.seq}
	depth := q.depthLocked()
	q.cond.Broadcast()
	q.mu.Unlock()
	if m != nil {
		m.accepted.Add(int64(res.Accepted))
		m.depth.Set(float64(depth))
	}
	return res, nil
}

// Pause stops deliveries (queued events accumulate) until Resume.
// Operators use it to hold the selector steady during maintenance;
// tests use it to make queue-full conditions deterministic.
func (q *Intake) Pause() {
	q.mu.Lock()
	q.paused = true
	q.mu.Unlock()
}

// Resume restarts deliveries after Pause.
func (q *Intake) Resume() {
	q.mu.Lock()
	q.paused = false
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Quiesce blocks until every queued event has been delivered and no
// delivery is in flight. It does not stop the intake; it is the
// read-your-writes barrier ("everything accepted so far has reached
// the selector"). Quiesce on a paused intake with queued events blocks
// until someone calls Resume.
func (q *Intake) Quiesce() {
	q.mu.Lock()
	for q.depthLocked() > 0 || q.inflight {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// Close stops admitting new events, drains everything already
// accepted (resuming a paused intake), and waits for the delivery
// goroutine to exit or the context to expire. After a context
// expiry the queue keeps draining in the background; Enqueue still
// returns ErrClosed. Returns the first sink error, if any.
func (q *Intake) Close(ctx context.Context) error {
	q.mu.Lock()
	q.closed = true
	q.paused = false
	q.cond.Broadcast()
	q.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-q.stopped:
	case <-ctx.Done():
		return ctx.Err()
	}
	return q.Err()
}

// UpdateGauges refreshes the queue depth and oldest-wait gauges; the
// daemon calls it at metrics scrape.
func (q *Intake) UpdateGauges() {
	m := met.Get()
	if m == nil {
		return
	}
	q.mu.Lock()
	depth := q.depthLocked()
	var age time.Duration
	if depth > 0 {
		age = time.Since(q.queue[q.head].at)
	}
	q.mu.Unlock()
	m.depth.Set(float64(depth))
	m.oldest.Set(age.Seconds())
}

// run is the delivery goroutine: greedily drain up to MaxBatch queued
// events, deliver, repeat; exit once closed and drained.
func (q *Intake) run() {
	defer close(q.stopped)
	var batch []pending
	for {
		q.mu.Lock()
		for (q.depthLocked() == 0 || q.paused) && !q.closed {
			q.cond.Wait()
		}
		if q.depthLocked() == 0 && q.closed {
			q.mu.Unlock()
			return
		}
		n := min(q.depthLocked(), q.cfg.MaxBatch)
		batch = append(batch[:0], q.queue[q.head:q.head+n]...)
		q.head += n
		if q.head == len(q.queue) {
			q.queue = q.queue[:0]
			q.head = 0
		}
		q.inflight = true
		depth := q.depthLocked()
		q.mu.Unlock()

		err := q.deliver(batch, depth)

		q.mu.Lock()
		q.inflight = false
		q.deliv += uint64(len(batch))
		if err != nil && q.sinkErr == nil {
			q.sinkErr = err
		}
		q.cond.Broadcast()
		q.mu.Unlock()
	}
}

// deliver taps, coalesces and sinks one drained batch, wrapping it in
// an ingest.deliver span that roots the trace the selector's observe
// spans join.
func (q *Intake) deliver(batch []pending, depthLeft int) error {
	m := met.Get()
	events := make([]scenario.Event, len(batch))
	for i := range batch {
		events[i] = batch[i].ev
	}
	var sp *obsv.Span
	if m != nil {
		m.depth.Set(float64(depthLeft))
		m.queueWait.Observe(time.Since(batch[0].at).Seconds())
		m.batchEvents.Observe(float64(len(events)))
		sp = m.reg.Spans().Start("ingest.deliver")
		sp.SetAttr("events", int64(len(events)))
	}
	if q.cfg.Tap != nil {
		q.cfg.Tap(events)
	}
	out, st := Coalesce(events)
	if m != nil {
		m.coalLink.Add(int64(st.Link))
		m.coalDemand.Add(int64(st.Demand))
		m.coalDelta.Add(int64(st.Delta))
		sp.SetAttr("coalesced", int64(st.Out))
	}
	err := q.sink.ObserveBatch(out, sp.TraceID(), sp.ID())
	if m != nil {
		m.deliveries.Inc()
		if err != nil {
			m.sinkErrors.Inc()
		}
	}
	sp.End()
	return err
}
