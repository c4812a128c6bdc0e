package pubsub

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Graph is a registry over a running query graph. Nodes are discovered by
// walking subscriptions from the registered root sources, so the graph
// reflects live topology — including operators spliced in later by the
// optimizer. Graphs validate acyclicity (query graphs are DAGs per the
// paper) and render a textual EXPLAIN.
type Graph struct {
	mu    sync.Mutex
	roots []Source
}

// Edge is one subscription viewed as a directed edge.
type Edge struct {
	From  Source
	To    Sink
	Input int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddRoot registers a root source; reachable nodes are discovered lazily.
func (g *Graph) AddRoot(s Source) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.roots {
		if r == s {
			return
		}
	}
	g.roots = append(g.roots, s)
}

// Nodes returns every node reachable from the roots, in BFS order.
func (g *Graph) Nodes() []Node {
	nodes, _ := g.walk()
	return nodes
}

// Edges returns every subscription edge reachable from the roots.
func (g *Graph) Edges() []Edge {
	_, edges := g.walk()
	return edges
}

func (g *Graph) walk() ([]Node, []Edge) {
	g.mu.Lock()
	roots := make([]Source, len(g.roots))
	copy(roots, g.roots)
	g.mu.Unlock()

	var nodes []Node
	var edges []Edge
	seen := map[Node]bool{}
	var frontier []Node
	for _, r := range roots {
		if !seen[r] {
			seen[r] = true
			frontier = append(frontier, r)
		}
	}
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		nodes = append(nodes, n)
		src, ok := n.(Source)
		if !ok {
			continue
		}
		for _, sub := range src.Subscriptions() {
			edges = append(edges, Edge{From: src, To: sub.Sink, Input: sub.Input})
			if !seen[sub.Sink] {
				seen[sub.Sink] = true
				frontier = append(frontier, sub.Sink)
			}
		}
	}
	return nodes, edges
}

// ErrCycle is returned by Validate when the subscription topology contains
// a cycle.
var ErrCycle = errors.New("pubsub: query graph contains a cycle")

// Validate checks that the reachable topology is a DAG.
func (g *Graph) Validate() error {
	_, err := g.TopoOrder()
	return err
}

// TopoOrder returns the reachable nodes in a topological order (sources
// before their subscribers) or ErrCycle.
func (g *Graph) TopoOrder() ([]Node, error) {
	nodes, edges := g.walk()
	indeg := map[Node]int{}
	succ := map[Node][]Node{}
	for _, n := range nodes {
		indeg[n] = 0
	}
	for _, e := range edges {
		indeg[e.To]++
		succ[e.From] = append(succ[e.From], e.To)
	}
	var ready []Node
	for _, n := range nodes { // preserve BFS discovery order for stability
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	var order []Node
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, m := range succ[n] {
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	if len(order) != len(nodes) {
		return nil, ErrCycle
	}
	return order, nil
}

// Explain renders the graph as indented text, one line per edge group —
// the textual stand-in for the paper's visual plan GUI (Fig. 2).
func (g *Graph) Explain() string {
	var b strings.Builder
	nodes, edges := g.walk()
	succ := map[Node][]Edge{}
	indeg := map[Node]int{}
	for _, e := range edges {
		succ[e.From] = append(succ[e.From], e)
		indeg[e.To]++
	}
	var render func(n Node, depth int, visited map[Node]bool)
	render = func(n Node, depth int, visited map[Node]bool) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), n.Name())
		if visited[n] {
			return
		}
		visited[n] = true
		src, ok := n.(Source)
		if !ok {
			return
		}
		out := succ[src]
		sort.SliceStable(out, func(i, j int) bool { return out[i].To.Name() < out[j].To.Name() })
		for _, e := range out {
			render(e.To, depth+1, visited)
		}
	}
	visited := map[Node]bool{}
	for _, n := range nodes {
		if indeg[n] == 0 {
			render(n, 0, visited)
		}
	}
	return b.String()
}
