package repro

import "repro/internal/ingest"

// ErrIntakeFull is returned by Fleet.Enqueue when admitting a network's
// sub-batch would overflow that shard's intake queue. The whole
// sub-batch is shed (admission is all-or-nothing per shard), so
// accepted and shed counts always reconcile with the events offered;
// callers surface the backpressure (HTTP 429 + Retry-After in cmd/dtrd)
// and retry.
var ErrIntakeFull = ingest.ErrFull

// ErrIntakeClosed is returned by Fleet.Enqueue for a shard whose intake
// queue has begun closing.
var ErrIntakeClosed = ingest.ErrClosed

// IntakeStats is a consistent snapshot of a shard's intake counters
// (FleetShardState.Intake); Accepted + Shed equals the events offered, and
// Accepted - Delivered equals Depth plus any in-flight delivery.
type IntakeStats struct {
	Accepted  uint64
	Shed      uint64
	Delivered uint64
	Depth     int
}
