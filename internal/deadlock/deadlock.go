// Package deadlock analyzes routings for wormhole deadlock freedom. The
// paper assumes "a deadlock avoidance technique is used (such as resource
// ordering [5] or escape channels [3])"; this package makes the
// assumption checkable and constructive:
//
//   - BuildCDG constructs the channel dependency graph (CDG) of a routing:
//     a node per link (channel) and an edge whenever some flow holds one
//     channel while requesting the next. By Dally–Seitz, a wormhole
//     network with this channel set is deadlock-free iff the CDG is
//     acyclic.
//   - FindCycle reports a certificate cycle when one exists.
//   - EscapeChannels implements Duato-style avoidance on minimal meshes:
//     a second virtual channel per physical link restricted to XY order
//     (whose CDG is always acyclic) guarantees deadlock freedom for any
//     Manhattan routing on the full channel set.
package deadlock

import (
	"fmt"
	"sort"

	"repro/internal/mesh"
	"repro/internal/route"
	"repro/internal/topo"
)

// CDG is the channel dependency graph of a routing: adjacency between
// dense link IDs.
type CDG struct {
	Topo topo.Topology
	// Next[a] lists the channels requested while holding channel a,
	// deduplicated and sorted.
	Next map[int][]int
}

// BuildCDG collects every consecutive link pair of every flow.
func BuildCDG(r route.Routing) *CDG {
	seen := make(map[int]map[int]bool)
	for _, f := range r.Flows {
		for i := 0; i+1 < len(f.Path); i++ {
			a := r.Topo.LinkID(f.Path[i])
			b := r.Topo.LinkID(f.Path[i+1])
			if seen[a] == nil {
				seen[a] = make(map[int]bool)
			}
			seen[a][b] = true
		}
	}
	g := &CDG{Topo: r.Topo, Next: make(map[int][]int, len(seen))}
	for a, succ := range seen {
		ids := make([]int, 0, len(succ))
		for b := range succ {
			ids = append(ids, b)
		}
		sort.Ints(ids)
		g.Next[a] = ids
	}
	return g
}

// Acyclic reports whether the CDG has no cycle; a routing whose CDG is
// acyclic is deadlock-free under wormhole switching (Dally–Seitz).
func (g *CDG) Acyclic() bool { return g.FindCycle() == nil }

// FindCycle returns a channel cycle as a sequence of link IDs (the last
// depends on the first), or nil when the graph is acyclic. The search is
// deterministic: nodes and successors are visited in ascending ID order.
func (g *CDG) FindCycle() []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int, len(g.Next))
	parent := make(map[int]int)
	nodes := make([]int, 0, len(g.Next))
	for a := range g.Next {
		nodes = append(nodes, a)
	}
	sort.Ints(nodes)

	var cycle []int
	var dfs func(a int) bool
	dfs = func(a int) bool {
		color[a] = gray
		for _, b := range g.Next[a] {
			switch color[b] {
			case white:
				parent[b] = a
				if dfs(b) {
					return true
				}
			case gray:
				// Back edge a→b closes a cycle b → … → a.
				cycle = []int{b}
				for v := a; v != b; v = parent[v] {
					cycle = append(cycle, v)
				}
				// Reverse into dependency order b, …, a.
				for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[a] = black
		return false
	}
	for _, a := range nodes {
		if color[a] == white && dfs(a) {
			return cycle
		}
	}
	return nil
}

// DescribeCycle renders a cycle as link strings for diagnostics.
func (g *CDG) DescribeCycle(cycle []int) string {
	if len(cycle) == 0 {
		return "acyclic"
	}
	out := ""
	for i, id := range cycle {
		if i > 0 {
			out += " -> "
		}
		out += g.Topo.LinkByID(id).String()
	}
	return out + " -> (repeats)"
}

// VC identifies a virtual channel: a physical link plus a class.
type VC struct {
	Link  int // dense link id
	Class int // 0 = escape (XY-restricted), 1 = adaptive
}

// Assignment maps every hop of every flow to a virtual channel class.
type Assignment struct {
	// Classes[f][i] is the class of flow f's i-th hop.
	Classes [][]int
}

// EscapeChannels assigns virtual channels Duato-style: hops that follow
// the flow's XY order (all horizontal hops before the first vertical hop,
// then verticals) may use either class and are placed on the adaptive
// class 1; any hop at or after a vertical→horizontal transition uses the
// escape class 0 only if it still obeys XY from that point. Concretely,
// the assignment is: class 1 while the path's remaining hops are not in
// XY form, class 0 once they are. Because class-0 dependencies follow the
// XY order — whose CDG is acyclic — and class-1 channels can always drain
// into class 0, the configuration is deadlock-free for every minimal
// routing (Duato's theorem).
func EscapeChannels(r route.Routing) Assignment {
	a := Assignment{Classes: make([][]int, len(r.Flows))}
	for fi, f := range r.Flows {
		classes := make([]int, len(f.Path))
		// Find the last vertical→horizontal transition; from the hop
		// after it onward the path suffix is horizontal-then-vertical
		// (XY-shaped), so it can ride the escape class.
		xyFrom := 0
		for i := 1; i < len(f.Path); i++ {
			prevV := isVertical(f.Path[i-1])
			curV := isVertical(f.Path[i])
			if prevV && !curV {
				xyFrom = i
			}
		}
		for i := range classes {
			if i >= xyFrom {
				classes[i] = 0
			} else {
				classes[i] = 1
			}
		}
		a.Classes[fi] = classes
	}
	return a
}

// Validate checks that the escape (class 0) sub-network is used in XY
// order by every flow: within a flow's class-0 suffix, no vertical hop is
// ever followed by a horizontal hop.
func (a Assignment) Validate(r route.Routing) error {
	if len(a.Classes) != len(r.Flows) {
		return fmt.Errorf("deadlock: assignment covers %d flows, routing has %d",
			len(a.Classes), len(r.Flows))
	}
	for fi, f := range r.Flows {
		classes := a.Classes[fi]
		if len(classes) != len(f.Path) {
			return fmt.Errorf("deadlock: flow %d: %d classes for %d hops",
				fi, len(classes), len(f.Path))
		}
		seenVertical := false
		inEscape := false
		for i, c := range classes {
			if c != 0 && c != 1 {
				return fmt.Errorf("deadlock: flow %d hop %d: invalid class %d", fi, i, c)
			}
			if inEscape && c == 1 {
				return fmt.Errorf("deadlock: flow %d hop %d: left the escape class", fi, i)
			}
			if c == 0 {
				if !inEscape {
					inEscape = true
					seenVertical = false
				}
				v := isVertical(f.Path[i])
				if seenVertical && !v {
					return fmt.Errorf("deadlock: flow %d hop %d: escape class violates XY order", fi, i)
				}
				seenVertical = seenVertical || v
			}
		}
	}
	return nil
}

// EscapeCDG builds the CDG restricted to escape-class hops under the
// assignment; it must always be acyclic.
func EscapeCDG(r route.Routing, a Assignment) *CDG {
	seen := make(map[int]map[int]bool)
	for fi, f := range r.Flows {
		classes := a.Classes[fi]
		for i := 0; i+1 < len(f.Path); i++ {
			if classes[i] != 0 || classes[i+1] != 0 {
				continue
			}
			x := r.Topo.LinkID(f.Path[i])
			y := r.Topo.LinkID(f.Path[i+1])
			if seen[x] == nil {
				seen[x] = make(map[int]bool)
			}
			seen[x][y] = true
		}
	}
	g := &CDG{Topo: r.Topo, Next: make(map[int][]int, len(seen))}
	for x, succ := range seen {
		ids := make([]int, 0, len(succ))
		for y := range succ {
			ids = append(ids, y)
		}
		sort.Ints(ids)
		g.Next[x] = ids
	}
	return g
}

func isVertical(l mesh.Link) bool {
	d := l.Dir()
	return d == mesh.South || d == mesh.North
}
