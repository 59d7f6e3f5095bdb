package spf

import (
	"math"

	"repro/internal/graph"
)

// Inf is the distance assigned to nodes that cannot reach the
// destination. It is large enough that no real path can reach it, yet far
// from overflowing when weights are added to it.
const Inf int64 = math.MaxInt64 / 4

// InfDelay is returned as the path delay of sources disconnected from the
// destination.
const InfDelay = math.MaxFloat64 / 4

type heapEntry struct {
	dist int64
	node int32
}

// Workspace holds all scratch state for the SPF routines. A Workspace is
// bound to the graph it was created for (it aliases the graph's shared
// endpoint arrays; Run panics on any other graph) and may be reused
// across destinations, weight settings, and failure masks, but not
// across goroutines.
type Workspace struct {
	n int
	g *graph.Graph

	// Outputs of Run, valid until the next Run call.
	dist  []int64 // distance from each node to the destination
	order []int32 // settled nodes in ascending distance order
	dest  int32

	heap   []heapEntry
	flow   []float64
	val    []float64
	lflow  []float64
	dagOut []int32 // scratch for one node's on-DAG out-links
	// lfrom/lto alias the graph's shared endpoint arrays so hot
	// DAG-membership tests avoid copying whole Link structs.
	lfrom, lto []int32

	// Repair scratch (see batch.go). The epoch-marked arrays never need
	// clearing between repairs; cand holds tentative distances for the
	// affected set of an increase phase.
	cand      []int64
	aMark     []int32 // this epoch: node's distance changed (or joined the affected set)
	qMark     []int32 // this epoch: node queued as an affected-set candidate
	repEpoch  int32
	affList   []int32      // affected set of the current increase phase
	chgSorted []int32      // changed nodes, ascending by new distance
	order2    []int32      // scratch for the merged settled order
	kept      []LinkChange // the current repair's effective changes

	// Per-link epoch marks giving O(1) mid-state effective weights
	// during the increase phase of a repair that also lowers or restores
	// links (see batch.go).
	batchOld     []int64 // old effective weight of a decreased link
	batchOldMark []int32 // this epoch: batchOld[li] overrides w[li]
	batchUpMark  []int32 // this epoch: link newly up (dead at the mid state)
	batchEpoch   int32

	// Cumulative work counters (see stats.go); owners diff snapshots to
	// attribute SPF work to one update.
	stats RepairStats
}

// NewWorkspace returns a Workspace sized for g.
func NewWorkspace(g *graph.Graph) *Workspace {
	n := g.NumNodes()
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := g.OutDegree(v); d > maxDeg {
			maxDeg = d
		}
	}
	lfrom, lto := g.LinkEndpoints()
	return &Workspace{
		n:         n,
		g:         g,
		dist:      make([]int64, n),
		order:     make([]int32, 0, n),
		heap:      make([]heapEntry, 0, n*2),
		flow:      make([]float64, n),
		val:       make([]float64, n),
		lflow:     make([]float64, g.NumLinks()),
		dagOut:    make([]int32, maxDeg),
		lfrom:     lfrom,
		lto:       lto,
		cand:      make([]int64, n),
		aMark:     make([]int32, n),
		qMark:     make([]int32, n),
		affList:   make([]int32, 0, n),
		chgSorted: make([]int32, 0, n),
		order2:    make([]int32, 0, n),

		batchOld:     make([]int64, g.NumLinks()),
		batchOldMark: make([]int32, g.NumLinks()),
		batchUpMark:  make([]int32, g.NumLinks()),
	}
}

// Dist returns the distance of node v to the destination of the last Run.
func (ws *Workspace) Dist(v int) int64 { return ws.dist[v] }

// Reached reports whether node v can reach the destination of the last Run.
func (ws *Workspace) Reached(v int) bool { return ws.dist[v] < Inf }

// Run computes shortest distances from every node to dest over alive
// links, using w[l] as the weight of link l. Weights must be positive.
// After Run, the workspace exposes distances, the settled order, and DAG
// queries for this destination.
func (ws *Workspace) Run(g *graph.Graph, w []int32, dest int, mask *graph.Mask) {
	if g != ws.g {
		panic("spf: Workspace used with a graph other than the one it was created for")
	}
	ws.stats.Runs++
	if m := met.Get(); m != nil {
		m.runs.Inc()
	}
	ws.dest = int32(dest)
	for i := range ws.dist {
		ws.dist[i] = Inf
	}
	ws.order = ws.order[:0]
	ws.heap = ws.heap[:0]
	if !mask.NodeAlive(dest) {
		return
	}
	ws.dist[dest] = 0
	ws.heapPush(heapEntry{0, int32(dest)})
	for len(ws.heap) > 0 {
		e := ws.heapPop()
		if e.dist != ws.dist[e.node] {
			continue // stale entry
		}
		ws.order = append(ws.order, e.node)
		for _, li := range g.InLinks(int(e.node)) {
			if !mask.LinkAlive(int(li)) {
				continue
			}
			u := g.Link(int(li)).From
			nd := e.dist + int64(w[li])
			if nd < ws.dist[u] {
				ws.dist[u] = nd
				ws.heapPush(heapEntry{nd, int32(u)})
			}
		}
	}
}

// OnDAG reports whether link li lies on a shortest path to the last Run's
// destination, i.e. whether dist(from) == w(li) + dist(to).
func (ws *Workspace) OnDAG(g *graph.Graph, w []int32, li int, mask *graph.Mask) bool {
	if !mask.LinkAlive(li) {
		return false
	}
	l := g.Link(li)
	dv := ws.dist[l.To]
	return dv < Inf && ws.dist[l.From] == dv+int64(w[li])
}

// AccumulateLoads routes dem[u] units of traffic from every node u to the
// last Run's destination along the ECMP DAG, splitting evenly at each
// node, and adds the per-link loads into loads. It returns the total
// demand dropped because its source cannot reach the destination.
//
// dem is indexed by source node; dem[dest] is ignored.
func (ws *Workspace) AccumulateLoads(g *graph.Graph, w []int32, dem []float64, mask *graph.Mask, loads []float64) (dropped float64) {
	dropped = ws.AccumulateLoadsInto(g, w, dem, mask, ws.lflow)
	for li, f := range ws.lflow {
		loads[li] += f
	}
	return dropped
}

// AccumulateLoadsInto is AccumulateLoads writing this destination's
// per-link traffic shares into contrib (length NumLinks, fully
// overwritten) instead of adding them to a running total, so callers can
// cache one destination's contribution and subtract or re-sum it later.
//
// The accumulation is pull-based: each node's through-flow is assembled
// from its DAG in-links in adjacency order, so the result is a function of
// the distances alone — it does not depend on the order in which Dijkstra
// settled equal-distance nodes (no DAG edge connects distance ties). That
// canonical form is what lets cached SPF snapshots (routing.Session) and
// fresh runs produce bit-identical loads.
func (ws *Workspace) AccumulateLoadsInto(g *graph.Graph, w []int32, dem []float64, mask *graph.Mask, contrib []float64) (dropped float64) {
	clear(contrib)
	for i := range ws.flow {
		ws.flow[i] = 0
	}
	for u, d := range dem {
		if d == 0 || u == int(ws.dest) {
			continue
		}
		if ws.dist[u] >= Inf {
			dropped += d
			continue
		}
		ws.flow[u] = d
	}
	// DAG edges strictly decrease distance (weights are >= 1), so
	// processing nodes in descending settled order makes every DAG
	// in-link's share final before its head node pulls it. Off-DAG
	// in-links hold an exact 0.0 contribution, so no membership test is
	// needed: adding them never changes the (non-negative) sum's bits.
	for i := len(ws.order) - 1; i >= 0; i-- {
		u := ws.order[i]
		f := ws.flow[u]
		for _, li := range g.InLinks(int(u)) {
			f += contrib[li]
		}
		if f == 0 {
			continue
		}
		k := 0
		for _, li := range g.OutLinks(int(u)) {
			if ws.onDAGFast(g, w, li, mask) {
				ws.dagOut[k] = li
				k++
			}
		}
		if k == 0 {
			continue // u is the destination
		}
		share := f / float64(k)
		for _, li := range ws.dagOut[:k] {
			contrib[li] = share
		}
	}
	return dropped
}

// onDAGFast is the hot-loop membership test. The distance checks run
// first: most links fail them, and they are two array reads against the
// mask's (potentially) three.
func (ws *Workspace) onDAGFast(g *graph.Graph, w []int32, li int32, mask *graph.Mask) bool {
	dv := ws.dist[ws.lto[li]]
	if dv >= Inf || ws.dist[ws.lfrom[li]] != dv+int64(w[li]) {
		return false
	}
	return mask.LinkAlive(int(li))
}

// WorstDelays computes, for every source node, the largest total link
// delay over any ECMP path of the last Run's DAG, reading per-link delays
// from linkDelay. Sources that cannot reach the destination get InfDelay.
// The result is written into out (length NumNodes).
func (ws *Workspace) WorstDelays(g *graph.Graph, w []int32, linkDelay []float64, mask *graph.Mask, out []float64) {
	ws.pathDelays(g, w, linkDelay, mask, out, true)
}

// MeanDelays computes the expected path delay under even ECMP splitting
// (each node forwards to its DAG successors with equal probability).
func (ws *Workspace) MeanDelays(g *graph.Graph, w []int32, linkDelay []float64, mask *graph.Mask, out []float64) {
	ws.pathDelays(g, w, linkDelay, mask, out, false)
}

func (ws *Workspace) pathDelays(g *graph.Graph, w []int32, linkDelay []float64, mask *graph.Mask, out []float64, worst bool) {
	for i := range out {
		out[i] = InfDelay
	}
	// Ascending settled order guarantees DAG successors are final before
	// each node is processed.
	for _, u := range ws.order {
		if u == ws.dest {
			out[u] = 0
			continue
		}
		var acc float64
		k := 0
		for _, li := range g.OutLinks(int(u)) {
			if !ws.onDAGFast(g, w, li, mask) {
				continue
			}
			v := g.Link(int(li)).To
			d := linkDelay[li] + out[v]
			if worst {
				if k == 0 || d > acc {
					acc = d
				}
			} else {
				acc += d
			}
			k++
		}
		if k == 0 {
			continue // settled node with no DAG out-link: impossible unless dest
		}
		if !worst {
			acc /= float64(k)
		}
		out[u] = acc
	}
}

// MaxOverPaths computes, for every source node, the largest per-link
// value encountered on any ECMP path of the last Run's DAG (a bottleneck
// DP over the max semiring) — e.g. the highest link utilization a pair's
// traffic can meet. Unreachable sources get InfDelay.
func (ws *Workspace) MaxOverPaths(g *graph.Graph, w []int32, linkVal []float64, mask *graph.Mask, out []float64) {
	for i := range out {
		out[i] = InfDelay
	}
	for _, u := range ws.order {
		if u == ws.dest {
			out[u] = 0
			continue
		}
		var acc float64
		k := 0
		for _, li := range g.OutLinks(int(u)) {
			if !ws.onDAGFast(g, w, li, mask) {
				continue
			}
			v := g.Link(int(li)).To
			d := math.Max(linkVal[li], out[v])
			if k == 0 || d > acc {
				acc = d
			}
			k++
		}
		if k == 0 {
			continue
		}
		out[u] = acc
	}
}

// HopCounts runs a unit-weight SPF toward dest and writes the minimum hop
// count of every node into out (Inf hops become large positive values via
// float conversion of Inf; callers should check Reached). It reuses the
// workspace, so the last Run's state is overwritten.
func (ws *Workspace) HopCounts(g *graph.Graph, dest int, mask *graph.Mask, unit []int32, out []float64) {
	ws.Run(g, unit, dest, mask)
	for v := 0; v < ws.n; v++ {
		if ws.dist[v] >= Inf {
			out[v] = math.Inf(1)
		} else {
			out[v] = float64(ws.dist[v])
		}
	}
}

// PathTo extracts one shortest path from src to the last Run's
// destination as a sequence of link indices, choosing the first DAG
// successor at every hop. It returns nil if src cannot reach the
// destination.
func (ws *Workspace) PathTo(g *graph.Graph, w []int32, src int, mask *graph.Mask) []int {
	if ws.dist[src] >= Inf {
		return nil
	}
	var path []int
	u := src
	for u != int(ws.dest) {
		advanced := false
		for _, li := range g.OutLinks(u) {
			if ws.onDAGFast(g, w, li, mask) {
				path = append(path, int(li))
				u = g.Link(int(li)).To
				advanced = true
				break
			}
		}
		if !advanced {
			return nil // defensive: settled non-destination always has a successor
		}
	}
	return path
}

// UnitWeights returns a weight vector of all ones sized for g, for
// hop-count SPF runs.
func UnitWeights(g *graph.Graph) []int32 {
	w := make([]int32, g.NumLinks())
	for i := range w {
		w[i] = 1
	}
	return w
}

// State is a snapshot of a Run's outputs (distances and settled order for
// one destination), so that several destinations' DAGs can be revisited —
// e.g. for the delay dynamic program — without re-running Dijkstra.
type State struct {
	Dist  []int64
	Order []int32
	Dest  int32
}

// Save copies the last Run's outputs into s, growing its slices as
// needed.
func (ws *Workspace) Save(s *State) {
	s.Dist = append(s.Dist[:0], ws.dist...)
	s.Order = append(s.Order[:0], ws.order...)
	s.Dest = ws.dest
}

// CopyFrom overwrites s with src, reusing s's backing arrays.
func (s *State) CopyFrom(src *State) {
	s.Dist = append(s.Dist[:0], src.Dist...)
	s.Order = append(s.Order[:0], src.Order...)
	s.Dest = src.Dest
}

// Restore loads a snapshot back into the workspace, as if Run had just
// computed it.
func (ws *Workspace) Restore(s *State) {
	ws.dist = append(ws.dist[:0], s.Dist...)
	ws.order = append(ws.order[:0], s.Order...)
	ws.dest = s.Dest
}

// Binary heap with lazy deletion.

func (ws *Workspace) heapPush(e heapEntry) {
	ws.heap = append(ws.heap, e)
	i := len(ws.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if ws.heap[parent].dist <= ws.heap[i].dist {
			break
		}
		ws.heap[parent], ws.heap[i] = ws.heap[i], ws.heap[parent]
		i = parent
	}
}

func (ws *Workspace) heapPop() heapEntry {
	top := ws.heap[0]
	last := len(ws.heap) - 1
	ws.heap[0] = ws.heap[last]
	ws.heap = ws.heap[:last]
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < last && ws.heap[left].dist < ws.heap[smallest].dist {
			smallest = left
		}
		if right < last && ws.heap[right].dist < ws.heap[smallest].dist {
			smallest = right
		}
		if smallest == i {
			break
		}
		ws.heap[i], ws.heap[smallest] = ws.heap[smallest], ws.heap[i]
		i = smallest
	}
	return top
}
