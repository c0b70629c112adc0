package graph

// Alive is a predicate over hosts; algorithms that take one ignore hosts
// for which it returns false (and every edge incident to them). A nil
// predicate means "all hosts alive".
type Alive func(HostID) bool

// BFS runs a breadth-first search from src, restricted to hosts for which
// alive returns true, and returns the distance (in hops) from src to every
// host. Unreachable (or dead) hosts get distance -1. If src itself is dead,
// every entry is -1.
func (g *Graph) BFS(src HostID, alive Alive) []int32 {
	s := g.newBFSScratch()
	s.run(g, src, alive)
	return s.dist
}

// bfsScratch is the working set of one BFS — the distance array and the
// visit queue — kept so multi-source callers (Diameter runs one BFS per
// host) overwrite one pair of buffers instead of allocating per source.
type bfsScratch struct {
	dist  []int32
	queue []HostID // cap g.Len(): every host is enqueued at most once
}

func (g *Graph) newBFSScratch() *bfsScratch {
	return &bfsScratch{dist: make([]int32, g.Len()), queue: make([]HostID, 0, g.Len())}
}

// run overwrites s.dist with the BFS distances from src (see BFS) and
// returns src's eccentricity: the largest finite distance, -1 if src is
// dead.
func (s *bfsScratch) run(g *Graph, src HostID, alive Alive) int {
	dist := s.dist
	for i := range dist {
		dist[i] = -1
	}
	if alive != nil && !alive(src) {
		return -1
	}
	queue := append(s.queue[:0], src)
	dist[src] = 0
	ecc := int32(0)
	for i := 0; i < len(queue); i++ {
		h := queue[i]
		for _, n := range g.adj[h] {
			if dist[n] >= 0 {
				continue
			}
			if alive != nil && !alive(n) {
				continue
			}
			dist[n] = dist[h] + 1
			ecc = dist[n] // BFS visits in distance order: the last is the farthest
			queue = append(queue, n)
		}
	}
	return int(ecc)
}

// Diameter computes the exact diameter of the graph restricted to alive
// hosts: the maximum over sources of eccentricity. It is O(|H|·(|H|+|E|)),
// so use DiameterSampled for large graphs.
func (g *Graph) Diameter(alive Alive) int {
	max := 0
	s := g.newBFSScratch()
	for h := 0; h < g.Len(); h++ {
		if alive != nil && !alive(HostID(h)) {
			continue
		}
		if e := s.run(g, HostID(h), alive); e > max {
			max = e
		}
	}
	return max
}

// DiameterSampled lower-bounds the diameter using the standard
// double-sweep heuristic repeated `sweeps` times: BFS from a start host to
// find a far host, then BFS from that far host. On small-world and grid
// topologies the bound is exact or within one hop, which is all the
// protocols need (they only require an overestimate D̂ ≥ D, obtained by
// adding slack to this value).
func (g *Graph) DiameterSampled(sweeps int, alive Alive) int {
	if g.Len() == 0 {
		return 0
	}
	best := 0
	start := HostID(0)
	scratch := g.newBFSScratch()
	for s := 0; s < sweeps; s++ {
		// Find the first alive host at or after start.
		src := None
		for i := 0; i < g.Len(); i++ {
			h := HostID((int(start) + i) % g.Len())
			if alive == nil || alive(h) {
				src = h
				break
			}
		}
		if src == None {
			return 0
		}
		scratch.run(g, src, alive)
		far, fd := src, int32(0)
		for h, d := range scratch.dist {
			if d > fd {
				far, fd = HostID(h), d
			}
		}
		if e := scratch.run(g, far, alive); e > best {
			best = e
		}
		start = far + 1
	}
	return best
}

// Component returns the IDs of all alive hosts reachable from src
// (including src itself). If src is dead it returns nil.
func (g *Graph) Component(src HostID, alive Alive) []HostID {
	dist := g.BFS(src, alive)
	var comp []HostID
	for h, d := range dist {
		if d >= 0 {
			comp = append(comp, HostID(h))
		}
	}
	return comp
}

// Components returns all connected components over alive hosts, largest
// first.
func (g *Graph) Components(alive Alive) [][]HostID {
	seen := make([]bool, g.Len())
	var comps [][]HostID
	for h := 0; h < g.Len(); h++ {
		id := HostID(h)
		if seen[h] || (alive != nil && !alive(id)) {
			continue
		}
		comp := g.Component(id, alive)
		for _, c := range comp {
			seen[c] = true
		}
		comps = append(comps, comp)
	}
	// Largest first (stable enough for tests: sizes then first element).
	for i := 0; i < len(comps); i++ {
		for j := i + 1; j < len(comps); j++ {
			if len(comps[j]) > len(comps[i]) {
				comps[i], comps[j] = comps[j], comps[i]
			}
		}
	}
	return comps
}

// IsConnected reports whether all alive hosts form a single component.
func (g *Graph) IsConnected(alive Alive) bool {
	comps := g.Components(alive)
	return len(comps) <= 1
}
