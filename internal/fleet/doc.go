// Package fleet shards the online control plane across networks: one
// controller Shard per network/region, which the repro facade's Fleet
// owns and routes telemetry to by network name, so capacity scales by
// adding shards and a failure in one network's controller never touches
// the others.
//
// Each Shard wraps a Controller — the per-network control-plane core
// (event-driven ctrl.Selector, deployed weights, bounded-change
// migration), moved here from the repro facade — behind its own
// ingest.Intake queue and a durable checkpoint Store. Admissions are
// write-ahead: every accepted batch is appended to the shard's event
// log, in admission order, before it is acknowledged. Periodic
// checkpoints quiesce the queue, atomically replace a JSON snapshot of
// the controller's durable state (deployed weights, active config,
// down-link set, demand overrides, event counter) and reset the log.
//
// Recovery — after a crash, a Kill, or a process restart — rebuilds the
// controller from the snapshot and replays the log's tail. Because the
// selector's incremental scores are bit-identical to from-scratch
// evaluation under the same conditions, and weights (int32) and demands
// (float64) round-trip exactly through JSON, the recovered controller
// is bit-identical to one that never crashed; a randomized kill/restore
// equivalence suite enforces this. A corrupt checkpoint — truncated
// snapshot, torn log tail, sequence gap, version mismatch — always
// fails closed (ErrCorrupt): the damaged files are archived and the
// shard cold-starts, never half-restores.
//
// Crash isolation: a panic in a shard's delivery path condemns only
// that shard's controller generation. Deliveries into the condemned
// generation fail fast so its queue drains, a fresh controller is
// recovered from checkpoint, and admissions return ErrShardDown only
// for the duration of the rebuild; every other shard keeps serving.
package fleet
