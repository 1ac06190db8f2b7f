// Package graph holds the event constraint graph the "w/G" analyses build
// during unoptimized predictive analysis (Roemer et al. 2018): nodes are
// trace event indices, edges are cross-thread ordering constraints —
// rule (a) and rule (b) edges, fork/join, volatile, class-init, and
// last-writer edges. Program order is implicit (events of one thread are
// ordered by trace index). Vindication consumes the graph to construct a
// witness reordering.
package graph

import "slices"

// Graph is an event constraint graph over a trace of N events. N grows as
// events are observed, so a graph can be built over a stream whose length
// is not known up front.
type Graph struct {
	N     int
	edges [][2]int32

	adj  [][]int32 // built on demand by Succ/Pred
	radj [][]int32
}

// New returns an empty graph over n events (a capacity hint; Observe and
// Edge extend N on demand).
func New(n int) *Graph { return &Graph{N: n} }

// Observe extends the graph's event space to cover index i. Streaming
// analyses call it per event so that N always equals the number of events
// processed, whether or not the event contributed an edge.
func (g *Graph) Observe(i int32) {
	if int(i) >= g.N {
		g.N = int(i) + 1
		g.adj, g.radj = nil, nil
	}
}

// Edge records the constraint src before dst. It implements
// analysis.Hook. Self and negative edges are ignored.
func (g *Graph) Edge(src, dst int32) {
	if src < 0 || src == dst {
		return
	}
	g.Observe(src)
	g.Observe(dst)
	g.edges = append(g.edges, [2]int32{src, dst})
	g.adj, g.radj = nil, nil
}

// Len returns the number of recorded cross-thread edges.
func (g *Graph) Len() int { return len(g.edges) }

// Edges returns the raw edge list (aliased; callers must not modify).
func (g *Graph) Edges() [][2]int32 { return g.edges }

func (g *Graph) build() {
	if g.adj != nil {
		return
	}
	g.adj = make([][]int32, g.N)
	g.radj = make([][]int32, g.N)
	for _, e := range g.edges {
		g.adj[e[0]] = append(g.adj[e[0]], e[1])
		g.radj[e[1]] = append(g.radj[e[1]], e[0])
	}
	for i := range g.adj {
		sortDedup(&g.adj[i])
		sortDedup(&g.radj[i])
	}
}

func sortDedup(s *[]int32) {
	slices.Sort(*s)
	*s = slices.Compact(*s)
}

// Succ returns the cross-thread successors of event i. Indices beyond the
// observed event space have no edges.
func (g *Graph) Succ(i int32) []int32 {
	g.build()
	if int(i) >= len(g.adj) {
		return nil
	}
	return g.adj[i]
}

// Pred returns the cross-thread predecessors of event i. Indices beyond the
// observed event space have no edges.
func (g *Graph) Pred(i int32) []int32 {
	g.build()
	if int(i) >= len(g.radj) {
		return nil
	}
	return g.radj[i]
}

// Weight estimates the graph's retained memory in 8-byte words — the
// "w/G" analyses' extra footprint.
func (g *Graph) Weight() int {
	w := len(g.edges)
	if g.adj != nil {
		w += 2 * g.N
		for i := range g.adj {
			w += (len(g.adj[i]) + len(g.radj[i])) / 2
		}
	}
	return w
}
