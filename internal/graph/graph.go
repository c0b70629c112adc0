// Package graph provides the undirected-graph representation of a network
// of hosts, G = (H, E), together with the traversal and structural
// algorithms the rest of the system needs: breadth-first search, diameter
// estimation, connected components, and induced subgraphs.
//
// Hosts are identified by dense integer IDs so that adjacency can be stored
// in slices and visited sets in bitmaps; all algorithms here are
// allocation-conscious because the oracle and topology generators run them
// on networks of tens of thousands of hosts inside benchmark loops.
package graph

import (
	"fmt"
	"sort"
)

// HostID identifies a host in the network. IDs are dense: a graph with n
// hosts uses IDs 0..n-1.
type HostID int32

// None is the sentinel "no host" value.
const None HostID = -1

// Graph is an undirected graph over dense host IDs. The zero value is an
// empty graph; use New for one with hosts.
type Graph struct {
	adj   [][]HostID
	edges int
}

// New returns a graph with n hosts and no edges.
func New(n int) *Graph {
	return &Graph{adj: make([][]HostID, n)}
}

// Len returns the number of hosts.
func (g *Graph) Len() int { return len(g.adj) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// Neighbors returns the adjacency list of h. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(h HostID) []HostID { return g.adj[h] }

// Degree returns the number of neighbors of h.
func (g *Graph) Degree(h HostID) int { return len(g.adj[h]) }

// HasEdge reports whether the undirected edge (a, b) exists.
func (g *Graph) HasEdge(a, b HostID) bool {
	// Scan the smaller adjacency list.
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, n := range g.adj[a] {
		if n == b {
			return true
		}
	}
	return false
}

// AddEdge inserts the undirected edge (a, b). Self-loops and duplicate
// edges are ignored. It reports whether the edge was added.
func (g *Graph) AddEdge(a, b HostID) bool {
	if a == b || a < 0 || b < 0 || int(a) >= len(g.adj) || int(b) >= len(g.adj) {
		return false
	}
	if g.HasEdge(a, b) {
		return false
	}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	g.edges++
	return true
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]HostID, len(g.adj)), edges: g.edges}
	for i, ns := range g.adj {
		if len(ns) > 0 {
			c.adj[i] = append([]HostID(nil), ns...)
		}
	}
	return c
}

// SortAdjacency sorts every adjacency list in ascending ID order, which
// makes iteration order (and therefore whole simulations) deterministic.
func (g *Graph) SortAdjacency() {
	for _, ns := range g.adj {
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	}
}

// Edges calls fn once per undirected edge (a < b). Iteration stops early if
// fn returns false.
func (g *Graph) Edges(fn func(a, b HostID) bool) {
	for a, ns := range g.adj {
		for _, b := range ns {
			if HostID(a) < b {
				if !fn(HostID(a), b) {
					return
				}
			}
		}
	}
}

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{hosts=%d edges=%d}", g.Len(), g.edges)
}

// AvgDegree returns the mean degree 2|E|/|H|, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.Len() == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(g.Len())
}

// MaxDegree returns the largest degree in the graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, ns := range g.adj {
		if len(ns) > max {
			max = len(ns)
		}
	}
	return max
}

// DegreeHistogram returns a map from degree to the number of hosts with
// that degree.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for _, ns := range g.adj {
		h[len(ns)]++
	}
	return h
}
