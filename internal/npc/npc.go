// Package npc constructs the NP-completeness gadget of Theorem 3
// (Figure 6): a reduction from 2-Partition to the s-MP bandwidth
// feasibility problem on a 2×((s−1)n+2) mesh. It also ships an exact
// pseudo-polynomial 2-Partition solver so both directions of the
// reduction can be exercised end to end.
package npc

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// Reduction is the Theorem 3 instance built from a 2-Partition input.
type Reduction struct {
	Mesh  *mesh.Mesh
	Model power.Model
	Comms comm.Set
	// S is the per-communication path budget of the s-MP rule.
	S int
	// A is the 2-Partition input (strictly positive integers).
	A []int
	// Sum is Σ A.
	Sum int
	// N is len(A).
	N int
	// Q is the mesh width (s−1)·n + 2.
	Q int
}

// Build constructs the reduction for input a and path budget s ≥ 2,
// following the proof of Theorem 3 verbatim:
//
//	p = 2, q = (s−1)·n + 2, BW = S/2 + (s−1)·n
//	γi       = (C(1,(i−1)(s−1)+1), C(2,q), a_i + s − 1)   for i = 1..n
//	γ(n+i')  = (C(1,i'), C(2,i'), BW−1)                    for i' = 1..q−2
//	γ(nc−1)  = (C(1,q−1), C(2,q−1), BW−S/2)
//	γ(nc)    = (C(1,q),   C(2,q),   BW−S/2)
//
// The one-hop vertical fillers leave slack 1 on the first q−2 vertical
// links and slack S/2 on the last two; total demand equals total vertical
// capacity, so every vertical link must be saturated exactly.
func Build(a []int, s int) (*Reduction, error) {
	n := len(a)
	if n == 0 {
		return nil, fmt.Errorf("npc: empty 2-partition input")
	}
	if s < 2 {
		return nil, fmt.Errorf("npc: path budget s=%d < 2", s)
	}
	sum := 0
	for i, ai := range a {
		if ai <= 0 {
			return nil, fmt.Errorf("npc: a[%d]=%d not strictly positive", i, ai)
		}
		sum += ai
	}
	if sum%2 != 0 {
		// An odd sum trivially has no partition; the gadget is still
		// well defined with BW = S/2 rounded down being fractional —
		// keep it exact by using float rates below.
	}
	q := (s-1)*n + 2
	bw := float64(sum)/2 + float64((s-1)*n)
	m := mesh.MustNew(2, q)

	set := make(comm.Set, 0, n+q)
	for i := 1; i <= n; i++ {
		set = append(set, comm.Comm{
			ID:   i,
			Src:  mesh.Coord{U: 1, V: (i-1)*(s-1) + 1},
			Dst:  mesh.Coord{U: 2, V: q},
			Rate: float64(a[i-1] + s - 1),
		})
	}
	for ip := 1; ip <= q-2; ip++ {
		set = append(set, comm.Comm{
			ID:   n + ip,
			Src:  mesh.Coord{U: 1, V: ip},
			Dst:  mesh.Coord{U: 2, V: ip},
			Rate: bw - 1,
		})
	}
	set = append(set,
		comm.Comm{ID: n + q - 1, Src: mesh.Coord{U: 1, V: q - 1}, Dst: mesh.Coord{U: 2, V: q - 1}, Rate: bw - float64(sum)/2},
		comm.Comm{ID: n + q, Src: mesh.Coord{U: 1, V: q}, Dst: mesh.Coord{U: 2, V: q}, Rate: bw - float64(sum)/2},
	)

	model := power.Model{Pleak: 1, P0: 1, Alpha: 2.5, MaxBW: bw}
	return &Reduction{Mesh: m, Model: model, Comms: set, S: s, A: a, Sum: sum, N: n, Q: q}, nil
}

// Partition solves 2-Partition exactly by subset-sum dynamic programming:
// it returns a subset I of indices with Σ_{i∈I} a_i = Σa/2, or ok=false
// when no such subset exists (including odd sums). The reconstruction is
// sound because from[s] records the *first* element index that reached s,
// and its predecessor sum was reachable using strictly earlier elements,
// so the recovered chain has strictly decreasing indices.
func Partition(a []int) (subset []int, ok bool) {
	sum := 0
	for _, x := range a {
		sum += x
	}
	if sum%2 != 0 {
		return nil, false
	}
	half := sum / 2
	// from[s] = index of the element that first reached sum s; -1 for
	// unreached, -2 for the empty sum.
	from := make([]int, half+1)
	for i := range from {
		from[i] = -1
	}
	from[0] = -2
	for i, x := range a {
		for s := half; s >= x; s-- {
			if from[s] == -1 && from[s-x] != -1 {
				from[s] = i
			}
		}
	}
	if from[half] == -1 {
		return nil, false
	}
	for s := half; s > 0; {
		i := from[s]
		subset = append(subset, i)
		s -= a[i]
	}
	return subset, true
}

// RoutingFromPartition materializes the proof's "if" direction: given a
// subset I with Σ_{i∈I} a_i = S/2, it builds the s-MP routing in which
// γi sends one unit down each of its s−1 dedicated columns and its a_i
// remainder down column q−1 (i ∈ I) or column q (i ∉ I). The routing
// saturates every vertical link exactly and satisfies the s-path budget.
func (r *Reduction) RoutingFromPartition(subset []int) (route.Routing, error) {
	inI := make(map[int]bool, len(subset))
	for _, i := range subset {
		if i < 0 || i >= r.N {
			return route.Routing{}, fmt.Errorf("npc: subset index %d out of range", i)
		}
		inI[i] = true
	}
	var flows []route.Flow
	// Traversal communications: s−1 unit fragments plus the a_i bulk.
	for i := 1; i <= r.N; i++ {
		g := r.Comms[i-1]
		base := (i - 1) * (r.S - 1)
		for k := 1; k <= r.S-1; k++ {
			flows = append(flows, route.Flow{
				Comm: comm.Comm{ID: g.ID, Src: g.Src, Dst: g.Dst, Rate: 1},
				Path: descendAt(g.Src, g.Dst, base+k),
			})
		}
		bulkCol := r.Q
		if inI[i-1] {
			bulkCol = r.Q - 1
		}
		flows = append(flows, route.Flow{
			Comm: comm.Comm{ID: g.ID, Src: g.Src, Dst: g.Dst, Rate: float64(r.A[i-1])},
			Path: descendAt(g.Src, g.Dst, bulkCol),
		})
	}
	// Filler communications: forced one-hop vertical paths.
	for _, g := range r.Comms[r.N:] {
		flows = append(flows, route.Flow{Comm: g, Path: route.XY(g.Src, g.Dst)})
	}
	return route.Routing{Topo: r.Mesh, Flows: flows}, nil
}

// descendAt returns the Manhattan path from src (row 1) to dst (row 2,
// column q) that goes east along row 1 to column col, takes the vertical
// link there, and continues east along row 2.
func descendAt(src, dst mesh.Coord, col int) route.Path {
	mid := mesh.Coord{U: 1, V: col}
	p := route.XY(src, mid)
	p = append(p, mesh.Link{From: mid, To: mesh.Coord{U: 2, V: col}})
	return append(p, route.XY(mesh.Coord{U: 2, V: col}, dst)...)
}

// VerticalSaturation returns the loads of the q vertical row-1→row-2
// links of a routing on the gadget mesh; in any feasible gadget routing
// every entry equals BW (the proof's saturation argument).
func (r *Reduction) VerticalSaturation(routing route.Routing) []float64 {
	loads := routing.Loads()
	out := make([]float64, r.Q)
	for v := 1; v <= r.Q; v++ {
		l := mesh.Link{From: mesh.Coord{U: 1, V: v}, To: mesh.Coord{U: 2, V: v}}
		out[v-1] = loads[r.Mesh.LinkID(l)]
	}
	return out
}
