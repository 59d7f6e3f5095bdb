package graph

import "fmt"

// Builder assembles a Graph incrementally. The zero value is not usable;
// call NewBuilder.
type Builder struct {
	n      int
	links  []Link
	names  []string
	coords []Coord
}

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NumNodes returns the node count the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// NumLinks returns the number of directed links added so far.
func (b *Builder) NumLinks() int { return len(b.links) }

// SetNodeName records a display name for node v.
func (b *Builder) SetNodeName(v int, name string) {
	if b.names == nil {
		b.names = make([]string, b.n)
	}
	b.names[v] = name
}

// SetNodeCoord records a planar position for node v.
func (b *Builder) SetNodeCoord(v int, c Coord) {
	if b.coords == nil {
		b.coords = make([]Coord, b.n)
	}
	b.coords[v] = c
}

// AddArc adds a single directed link and returns its index.
func (b *Builder) AddArc(from, to int, capacity, delay float64) int {
	b.links = append(b.links, Link{From: from, To: to, Capacity: capacity, Delay: delay, Reverse: -1})
	return len(b.links) - 1
}

// AddEdge adds a reverse-paired pair of directed links (one per
// direction) with identical capacity and delay, and returns their
// indices.
func (b *Builder) AddEdge(u, v int, capacity, delay float64) (fwd, rev int) {
	fwd = b.AddArc(u, v, capacity, delay)
	rev = b.AddArc(v, u, capacity, delay)
	b.links[fwd].Reverse = rev
	b.links[rev].Reverse = fwd
	return fwd, rev
}

// Build finalizes the graph, computing adjacency arrays and validating
// invariants.
func (b *Builder) Build() (*Graph, error) {
	g := &Graph{
		n:      b.n,
		links:  append([]Link(nil), b.links...),
		names:  b.names,
		coords: b.coords,
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.buildAdjacency()
	return g, nil
}

// MustBuild is Build that panics on error, for use with generators whose
// construction is correct by design.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("graph: MustBuild: %v", err))
	}
	return g
}

func (g *Graph) buildAdjacency() {
	outDeg := make([]int, g.n)
	inDeg := make([]int, g.n)
	for _, l := range g.links {
		outDeg[l.From]++
		inDeg[l.To]++
	}
	// Single backing arrays keep adjacency lists cache-friendly.
	outBack := make([]int32, len(g.links))
	inBack := make([]int32, len(g.links))
	g.out = make([][]int32, g.n)
	g.in = make([][]int32, g.n)
	var o, i int
	for v := 0; v < g.n; v++ {
		g.out[v] = outBack[o : o : o+outDeg[v]]
		o += outDeg[v]
		g.in[v] = inBack[i : i : i+inDeg[v]]
		i += inDeg[v]
	}
	for li, l := range g.links {
		g.out[l.From] = append(g.out[l.From], int32(li))
		g.in[l.To] = append(g.in[l.To], int32(li))
	}
	g.from = make([]int32, len(g.links))
	g.to = make([]int32, len(g.links))
	for li, l := range g.links {
		g.from[li], g.to[li] = int32(l.From), int32(l.To)
	}
}
