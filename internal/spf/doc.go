// Package spf implements the shortest-path machinery for destination-based
// routing with ECMP: reverse Dijkstra toward a destination, membership in
// the resulting shortest-path DAG, all-to-one traffic accumulation with
// even splitting (the standard OSPF/Fortz–Thorup model), per-source
// worst/mean path-delay dynamic programs over the DAG, and dynamic
// shortest-path repair for link events.
//
// All entry points operate through a reusable Workspace so that hot loops
// (thousands of evaluations per optimization run) allocate nothing. A
// Workspace's outputs for one destination can be snapshotted into a State
// and later Restored, which is how the incremental evaluation engine
// (routing.Session) caches one SPF per destination per scenario.
//
// The load accumulation is pull-based and canonical: per-link loads are
// a function of the distances alone, independent of the order in which
// Dijkstra settled equal-distance nodes, so a snapshot and a fresh run
// produce bit-identical floats (AccumulateLoadsInto). That is what makes
// the cached snapshots exact rather than approximate.
//
// When a change can move a snapshot's distances, the package repairs it
// instead of re-running Dijkstra: RepairBatch (on a Workspace or in place
// on a State) applies a set of simultaneous link changes — one weight
// move or flip is a set of one — with a Ramalingam–Reps-style repair
// that recomputes only the vertices whose distance actually changes,
// which on large topologies is a small set for almost every link event.
// Deciding which destinations need that repair, a DAG refresh or nothing
// is the caller's job (routing.Session classifies every change against
// its snapshots in O(1)–O(degree) per destination). The repair's
// invariants — exact distances, a valid ascending settled order modulo
// ties, derived DAG membership — are documented in batch.go; DESIGN.md
// ("Incremental SPF repair") explains how they compose with the session
// caches and when callers fall back to a full Dijkstra.
package spf
