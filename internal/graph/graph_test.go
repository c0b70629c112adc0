package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	if g.Len() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: got %v", g)
	}
	if g.AvgDegree() != 0 {
		t.Fatalf("empty graph avg degree: got %v", g.AvgDegree())
	}
	if d := g.DiameterSampled(2, nil); d != 0 {
		t.Fatalf("empty graph diameter: got %d", d)
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	if !g.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) should succeed")
	}
	if g.AddEdge(0, 1) {
		t.Fatal("duplicate edge should be rejected")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("reversed duplicate edge should be rejected")
	}
	if g.AddEdge(2, 2) {
		t.Fatal("self-loop should be rejected")
	}
	if g.AddEdge(0, 99) {
		t.Fatal("out-of-range edge should be rejected")
	}
	if g.AddEdge(-1, 0) {
		t.Fatal("negative host should be rejected")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge should be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("absent edge reported present")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Fatal("degree bookkeeping wrong")
	}
}

func TestAddHost(t *testing.T) {
	g := New(2)
	id := g.AddHost()
	if id != 2 || g.Len() != 3 {
		t.Fatalf("AddHost: id=%d len=%d", id, g.Len())
	}
	if !g.AddEdge(id, 0) {
		t.Fatal("edge to new host should succeed")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("mutating clone affected original")
	}
	if c.NumEdges() != 2 || g.NumEdges() != 1 {
		t.Fatalf("edge counts: clone=%d orig=%d", c.NumEdges(), g.NumEdges())
	}
}

// path builds a path graph 0-1-2-...-(n-1).
func path(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(HostID(i), HostID(i+1))
	}
	return g
}

// cycle builds a cycle graph of n hosts.
func cycle(n int) *Graph {
	g := path(n)
	g.AddEdge(0, HostID(n-1))
	return g
}

func TestBFSPath(t *testing.T) {
	g := path(5)
	dist := g.BFS(0, nil)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
}

func TestBFSWithDeadHosts(t *testing.T) {
	g := path(5)
	alive := func(h HostID) bool { return h != 2 }
	dist := g.BFS(0, alive)
	if dist[1] != 1 {
		t.Fatalf("dist[1] = %d, want 1", dist[1])
	}
	if dist[2] != -1 || dist[3] != -1 || dist[4] != -1 {
		t.Fatalf("hosts beyond dead host should be unreachable: %v", dist)
	}
}

func TestBFSDeadSource(t *testing.T) {
	g := path(3)
	dist := g.BFS(0, func(h HostID) bool { return h != 0 })
	for i, d := range dist {
		if d != -1 {
			t.Fatalf("dead source: dist[%d] = %d, want -1", i, d)
		}
	}
}

func TestDiameterExact(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{path(2), 1},
		{path(10), 9},
		{cycle(10), 5},
		{cycle(11), 5},
	}
	for i, c := range cases {
		if d := c.g.Diameter(nil); d != c.want {
			t.Errorf("case %d: diameter = %d, want %d", i, d, c.want)
		}
	}
}

func TestDiameterSampledMatchesExactOnSmallGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(30)
		g := path(n) // connected backbone
		for e := 0; e < n/2; e++ {
			g.AddEdge(HostID(rng.Intn(n)), HostID(rng.Intn(n)))
		}
		exact := g.Diameter(nil)
		sampled := g.DiameterSampled(4, nil)
		if sampled > exact {
			t.Fatalf("sampled diameter %d exceeds exact %d", sampled, exact)
		}
		if exact-sampled > 1 {
			t.Errorf("trial %d: sampled %d too far below exact %d", trial, sampled, exact)
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	// 5, 6 isolated
	comps := g.Components(nil)
	if len(comps) != 4 {
		t.Fatalf("components = %d, want 4", len(comps))
	}
	if len(comps[0]) != 3 {
		t.Fatalf("largest component size = %d, want 3", len(comps[0]))
	}
	if g.IsConnected(nil) {
		t.Fatal("disconnected graph reported connected")
	}
	if !path(4).IsConnected(nil) {
		t.Fatal("path reported disconnected")
	}
}

func TestComponentAfterFailure(t *testing.T) {
	// Star: failing the hub isolates all leaves.
	g := New(5)
	for i := 1; i < 5; i++ {
		g.AddEdge(0, HostID(i))
	}
	alive := func(h HostID) bool { return h != 0 }
	comp := g.Component(1, alive)
	if len(comp) != 1 || comp[0] != 1 {
		t.Fatalf("component of leaf after hub failure: %v", comp)
	}
	if g.BFS(1, alive)[2] >= 0 {
		t.Fatal("leaves should be mutually unreachable after hub failure")
	}
	if g.BFS(1, nil)[2] < 0 {
		t.Fatal("leaves reachable through alive hub")
	}
}

func TestEdgesIteration(t *testing.T) {
	g := cycle(5)
	count := 0
	g.Edges(func(a, b HostID) bool {
		if a >= b {
			t.Fatalf("edge callback order: a=%d b=%d", a, b)
		}
		count++
		return true
	})
	if count != 5 {
		t.Fatalf("edge iteration count = %d, want 5", count)
	}
	// Early stop.
	count = 0
	g.Edges(func(a, b HostID) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early-stop iteration count = %d, want 1", count)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	h := g.DegreeHistogram()
	if h[3] != 1 || h[1] != 3 {
		t.Fatalf("degree histogram = %v", h)
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("max degree = %d, want 3", g.MaxDegree())
	}
}

// Property: adjacency is always symmetric regardless of insertion pattern.
func TestQuickAdjacencySymmetry(t *testing.T) {
	f := func(pairs []uint16) bool {
		g := New(64)
		for _, p := range pairs {
			a := HostID(p >> 8 & 63)
			b := HostID(p & 63)
			g.AddEdge(a, b)
		}
		ok := true
		g.Edges(func(a, b HostID) bool {
			if !g.HasEdge(b, a) {
				ok = false
				return false
			}
			return true
		})
		// Degree sum must equal 2|E|.
		sum := 0
		for h := 0; h < g.Len(); h++ {
			sum += g.Degree(HostID(h))
		}
		return ok && sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances obey the triangle property along edges —
// neighbors' distances differ by at most 1 when both are reachable.
func TestQuickBFSNeighborDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		g := New(n)
		for e := 0; e < 2*n; e++ {
			g.AddEdge(HostID(rng.Intn(n)), HostID(rng.Intn(n)))
		}
		dist := g.BFS(0, nil)
		bad := false
		g.Edges(func(a, b HostID) bool {
			da, db := dist[a], dist[b]
			if da >= 0 && db >= 0 {
				diff := da - db
				if diff < -1 || diff > 1 {
					bad = true
					return false
				}
			}
			if (da >= 0) != (db >= 0) {
				bad = true // one endpoint reachable, the other not: impossible
				return false
			}
			return true
		})
		if bad {
			t.Fatalf("trial %d: BFS neighbor distance invariant violated", trial)
		}
	}
}

func TestSortAdjacencyDeterminism(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.SortAdjacency()
	ns := g.Neighbors(0)
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("adjacency not sorted: %v", ns)
		}
	}
}

func BenchmarkBFS40K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 40000
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(HostID(i), HostID(rng.Intn(i)))
	}
	for e := 0; e < 2*n; e++ {
		g.AddEdge(HostID(rng.Intn(n)), HostID(rng.Intn(n)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(0, nil)
	}
}
