package ingest

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/scenario"
)

// recordSink records delivered batches; an optional gate blocks each
// delivery until released, and entered signals when a delivery starts.
type recordSink struct {
	gate    chan struct{}
	entered chan struct{}
	err     error

	mu      sync.Mutex
	batches [][]scenario.Event
}

func (s *recordSink) ObserveBatch(events []scenario.Event, trace, parent uint64) error {
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	if s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	s.batches = append(s.batches, append([]scenario.Event(nil), events...))
	s.mu.Unlock()
	return s.err
}

func (s *recordSink) flat() []scenario.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []scenario.Event
	for _, b := range s.batches {
		out = append(out, b...)
	}
	return out
}

func labeled(n int) []scenario.Event {
	out := make([]scenario.Event, n)
	for i := range out {
		e := linkEvent(i, false)
		e.Label = string(rune('a' + i%26))
		e.Link = i // distinct links so coalescing never merges them
		out[i] = e
	}
	return out
}

func TestIntakeDeliversInOrder(t *testing.T) {
	sink := &recordSink{}
	q := New(Config{}, sink)
	defer q.Close(context.Background())

	events := labeled(10)
	var lastSeq uint64
	for i := 0; i < len(events); i += 3 {
		end := min(i+3, len(events))
		res, err := q.Enqueue(events[i:end])
		if err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
		if res.Accepted != end-i {
			t.Fatalf("accepted %d, want %d", res.Accepted, end-i)
		}
		if res.LastSeq <= lastSeq {
			t.Fatalf("LastSeq %d not increasing past %d", res.LastSeq, lastSeq)
		}
		lastSeq = res.LastSeq
	}
	if lastSeq != uint64(len(events)) {
		t.Fatalf("final LastSeq %d, want %d", lastSeq, len(events))
	}
	q.Quiesce()

	got := sink.flat()
	if len(got) != len(events) {
		t.Fatalf("delivered %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i].Link != events[i].Link || got[i].Label != events[i].Label {
			t.Fatalf("event %d delivered out of order: %+v vs %+v", i, got[i], events[i])
		}
	}
	st := q.Stats()
	if st.Accepted != 10 || st.Shed != 0 || st.Delivered != 10 || st.Depth != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestIntakeBackpressureAllOrNothing(t *testing.T) {
	sink := &recordSink{}
	q := New(Config{Capacity: 8}, sink)
	defer q.Close(context.Background())

	q.Pause() // make queue depth deterministic
	ev := labeled(26)

	if _, err := q.Enqueue(ev[:5]); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	// 5 queued + 4 offered > 8: the whole batch must be shed.
	if _, err := q.Enqueue(ev[5:9]); !errors.Is(err, ErrFull) {
		t.Fatalf("overflow batch: err = %v, want ErrFull", err)
	}
	if d := q.Depth(); d != 5 {
		t.Fatalf("depth after shed = %d, want 5 (shed must not partially admit)", d)
	}
	// A smaller batch still fits exactly.
	if _, err := q.Enqueue(ev[9:12]); err != nil {
		t.Fatalf("fitting batch: %v", err)
	}
	if _, err := q.Enqueue(ev[12:13]); !errors.Is(err, ErrFull) {
		t.Fatalf("full queue: err = %v, want ErrFull", err)
	}

	// Counters reconcile exactly: offered = accepted + shed.
	st := q.Stats()
	offered := uint64(5 + 4 + 3 + 1)
	if st.Accepted != 8 || st.Shed != 5 || st.Accepted+st.Shed != offered {
		t.Fatalf("stats %+v do not reconcile with %d offered", st, offered)
	}

	q.Resume()
	q.Quiesce()
	st = q.Stats()
	if st.Depth != 0 || st.Delivered != st.Accepted {
		t.Fatalf("post-drain stats %+v", st)
	}
	if got := len(sink.flat()); got != 8 {
		t.Fatalf("sink saw %d events, want 8", got)
	}
}

func TestIntakeRejectsAfterClose(t *testing.T) {
	sink := &recordSink{}
	q := New(Config{}, sink)
	if _, err := q.Enqueue(labeled(3)); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	if err := q.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := q.Enqueue(labeled(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Enqueue: err = %v, want ErrClosed", err)
	}
	// Close drained everything accepted before it.
	if got := len(sink.flat()); got != 3 {
		t.Fatalf("sink saw %d events, want 3", got)
	}
	if st := q.Stats(); st.Depth != 0 || st.Delivered != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestIntakeCloseDrainsPaused(t *testing.T) {
	sink := &recordSink{}
	q := New(Config{}, sink)
	q.Pause()
	if _, err := q.Enqueue(labeled(7)); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	// Close must unpause and drain without an explicit Resume.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := len(sink.flat()); got != 7 {
		t.Fatalf("sink saw %d events, want 7", got)
	}
}

func TestIntakeQuiesceWaitsForInflight(t *testing.T) {
	sink := &recordSink{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	q := New(Config{}, sink)
	defer func() {
		close(sink.gate)
		q.Close(context.Background())
	}()

	if _, err := q.Enqueue(labeled(2)); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	<-sink.entered // delivery grabbed the batch and is blocked in the sink
	if d := q.Depth(); d != 0 {
		t.Fatalf("depth with batch in flight = %d, want 0", d)
	}

	done := make(chan struct{})
	go func() { q.Quiesce(); close(done) }()
	select {
	case <-done:
		t.Fatal("Quiesce returned while a delivery was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	sink.gate <- struct{}{}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce did not return after the delivery finished")
	}
	if st := q.Stats(); st.Delivered != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestIntakeTapSeesEveryAcceptedEvent(t *testing.T) {
	var mu sync.Mutex
	var tapped []string
	sink := &recordSink{}
	q := New(Config{Tap: func(events []scenario.Event) {
		mu.Lock()
		for _, e := range events {
			tapped = append(tapped, e.Label)
		}
		mu.Unlock()
	}}, sink)
	defer q.Close(context.Background())

	events := labeled(20)
	for i := 0; i < len(events); i += 7 {
		if _, err := q.Enqueue(events[i:min(i+7, len(events))]); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	q.Quiesce()

	mu.Lock()
	defer mu.Unlock()
	if len(tapped) != len(events) {
		t.Fatalf("tap saw %d events, want %d", len(tapped), len(events))
	}
	for i, e := range events {
		if tapped[i] != e.Label {
			t.Fatalf("tap[%d] = %q, want %q", i, tapped[i], e.Label)
		}
	}
}

func TestIntakeSinkErrorRecorded(t *testing.T) {
	sinkErr := errors.New("sink rejected batch")
	sink := &recordSink{err: sinkErr}
	q := New(Config{}, sink)
	if _, err := q.Enqueue(labeled(1)); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	if err := q.Close(context.Background()); !errors.Is(err, sinkErr) {
		t.Fatalf("Close err = %v, want %v", err, sinkErr)
	}
	if err := q.Err(); !errors.Is(err, sinkErr) {
		t.Fatalf("Err = %v, want %v", err, sinkErr)
	}
}

func TestIntakeMetricsReconcile(t *testing.T) {
	reg := obsv.NewRegistry()
	obsv.SetDefault(reg)
	defer obsv.SetDefault(nil)
	m := met.Get()
	if m == nil {
		t.Fatal("metrics view did not bind to the installed registry")
	}

	sink := &recordSink{}
	q := New(Config{Capacity: 4}, sink)
	defer q.Close(context.Background())

	q.Pause()
	if _, err := q.Enqueue(labeled(3)); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	if _, err := q.Enqueue(labeled(2)); !errors.Is(err, ErrFull) {
		t.Fatalf("want ErrFull, got %v", err)
	}
	if got := m.accepted.Value(); got != 3 {
		t.Fatalf("accepted counter = %d, want 3", got)
	}
	if got := m.shed.Value(); got != 2 {
		t.Fatalf("shed counter = %d, want 2", got)
	}
	if got := m.depth.Value(); got != 3 {
		t.Fatalf("depth gauge = %v, want 3", got)
	}
	q.UpdateGauges()
	if got := m.oldest.Value(); got < 0 {
		t.Fatalf("oldest-wait gauge = %v, want >= 0", got)
	}

	q.Resume()
	q.Quiesce()
	q.UpdateGauges()
	if got := m.depth.Value(); got != 0 {
		t.Fatalf("depth gauge after drain = %v, want 0", got)
	}
	if got := m.oldest.Value(); got != 0 {
		t.Fatalf("oldest-wait gauge after drain = %v, want 0", got)
	}
	if got := m.deliveries.Value(); got != 1 {
		t.Fatalf("deliveries counter = %d, want 1", got)
	}
	if got := m.batchEvents.Count(); got != 1 {
		t.Fatalf("delivery-events histogram count = %d, want 1", got)
	}
	// Shed + accepted reconcile with everything offered.
	if m.accepted.Value()+m.shed.Value() != 5 {
		t.Fatalf("accepted %d + shed %d != 5 offered", m.accepted.Value(), m.shed.Value())
	}
}

func TestIntakeCoalescedDeliveryCounts(t *testing.T) {
	reg := obsv.NewRegistry()
	obsv.SetDefault(reg)
	defer obsv.SetDefault(nil)
	m := met.Get()

	sink := &recordSink{}
	q := New(Config{}, sink)
	defer q.Close(context.Background())

	q.Pause() // force one delivery so the flap coalesces away
	batch := []scenario.Event{
		linkEvent(0, false),
		linkEvent(0, true),
		linkEvent(1, false),
	}
	if _, err := q.Enqueue(batch); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	q.Resume()
	q.Quiesce()

	got := sink.flat()
	if len(got) != 2 {
		t.Fatalf("sink saw %d events, want 2 after coalescing: %+v", len(got), got)
	}
	if v := m.coalLink.Value(); v != 1 {
		t.Fatalf("link coalesce counter = %d, want 1", v)
	}
	st := q.Stats()
	// Delivered counts pre-coalescing events so it reconciles with Accepted.
	if st.Delivered != st.Accepted || st.Delivered != 3 {
		t.Fatalf("stats %+v", st)
	}
}
