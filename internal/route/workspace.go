package route

import (
	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/topo"
)

// Workspace is the reusable dense scratch arena of the solver layer. Every
// routing policy rebuilds the same kinds of state on each call — per-comm
// paths, a link-load account, a flow list, frontier and reachability sets —
// and a Workspace lets one goroutine (an experiment worker, a CLI loop)
// amortize those allocations across calls instead of rebuilding map-based
// state per trial.
//
// Pooling contract:
//
//   - A Workspace is NOT safe for concurrent use; give each worker its own
//     (see internal/experiments' per-worker scratch).
//   - A routing returned by a workspace-reusing solver call may alias
//     workspace memory (its Flows slice and the Paths inside them). It is
//     valid until the next solver call that reuses the same workspace;
//     callers that keep routings longer must deep-copy them first
//     (Routing.Clone).
//   - Passing a nil *Workspace everywhere it is accepted restores the
//     allocate-fresh behavior: results are bit-for-bit identical either
//     way, only the allocation profile changes.
//
// The zero value is ready to use after Bind.
type Workspace struct {
	// mesh is the bound mesh (nil when the workspace is bound to a
	// non-mesh topology); topo is the bound platform in either case.
	mesh    *mesh.Mesh
	topo    topo.Topology
	tracker *LoadTracker
	paths   PathSet
	flows   []Flow
	scratch map[string]any
}

// NewWorkspace returns an empty workspace; it binds lazily to the
// platform of the first solver call that uses it.
func NewWorkspace() *Workspace { return &Workspace{} }

// Bind prepares the workspace for solving on m. Binding to a mesh of the
// same dimensions keeps all pooled state (the common case: repeated trials
// on one platform); changing dimensions resizes the dense buffers and
// drops policy scratch, since it is sized to the link/core ID spaces.
func (w *Workspace) Bind(m *mesh.Mesh) {
	if w.mesh != nil && w.mesh.P() == m.P() && w.mesh.Q() == m.Q() {
		w.mesh = m
		w.topo = m
		w.tracker.mesh = m
		w.tracker.topo = m
		return
	}
	w.mesh = m
	w.topo = m
	w.tracker = NewLoadTracker(m)
	w.scratch = nil
}

// BindTopo prepares the workspace for solving on any topology — the
// generalization of Bind with the same pooling rule: binding to a
// topology with the same Spec (hence identical core set and link id
// space) keeps all pooled state, anything else rebuilds the dense
// buffers and drops policy scratch. A mesh argument behaves exactly
// like Bind.
func (w *Workspace) BindTopo(tp topo.Topology) {
	if m, ok := tp.(*mesh.Mesh); ok {
		w.Bind(m)
		return
	}
	if w.topo != nil && w.mesh == nil && w.topo.Spec() == tp.Spec() {
		w.topo = tp
		w.tracker.topo = tp
		return
	}
	w.mesh = nil
	w.topo = tp
	w.tracker = NewLoadTrackerTopo(tp)
	w.scratch = nil
}

// Tracker returns the workspace's pooled LoadTracker, reset to all-zero
// loads. Each solver call works against a freshly reset tracker; nested
// users (BEST re-running a candidate) simply reset again.
func (w *Workspace) Tracker() *LoadTracker {
	w.tracker.Reset()
	return w.tracker
}

// Paths returns the workspace's dense per-communication path store.
func (w *Workspace) Paths() *PathSet { return &w.paths }

// Flows returns the pooled flow buffer, emptied, with capacity for at
// least n flows. The assembled routing aliases this buffer (see the
// pooling contract above).
func (w *Workspace) Flows(n int) []Flow {
	if cap(w.flows) < n {
		w.flows = make([]Flow, 0, n)
	}
	return w.flows[:0]
}

// SetFlows hands the (possibly grown) flow buffer back to the workspace so
// the capacity is retained for the next call.
func (w *Workspace) SetFlows(f []Flow) { w.flows = f }

// Scratch returns the policy-private scratch value stored under key,
// building it on first use. Policy packages keep fully typed scratch
// structs (frontier buffers, bitset pools, arenas) here, so the workspace
// stays generic while every family gets zero-allocation reuse. Scratch
// values are dropped when the workspace rebinds to different mesh
// dimensions — they must be sized to the bound mesh only.
func (w *Workspace) Scratch(key string, build func() any) any {
	if w.scratch == nil {
		w.scratch = make(map[string]any)
	}
	s, ok := w.scratch[key]
	if !ok {
		s = build()
		w.scratch[key] = s
	}
	return s
}

// PathSet is a dense per-communication path store indexed by comm ID — the
// workspace replacement for the map[int]route.Path every heuristic used to
// rebuild per call. Slots keep their backing arrays across calls, so a
// reused PathSet routes without allocating once warmed up.
//
// IDs are normally used as direct slot indices; sets whose IDs are
// negative or much sparser than the set size (which the old maps accepted)
// fall back to a remap table, paying roughly the historical map cost
// instead of panicking or over-allocating the dense slot space.
type PathSet struct {
	paths []Path
	// remap translates comm ID → slot when the IDs are unusable as dense
	// indices; nil in the (overwhelmingly common) dense mode.
	remap map[int]int
}

// ResetFor sizes the store for the communication set (one slot per ID)
// without clearing slot capacities. Stale contents are never read: solvers
// overwrite the slot of every communication they route.
func (ps *PathSet) ResetFor(set comm.Set) {
	minID, maxID := 0, -1
	for _, c := range set {
		if c.ID > maxID {
			maxID = c.ID
		}
		if c.ID < minID {
			minID = c.ID
		}
	}
	if minID >= 0 && maxID < 4*len(set)+64 {
		ps.remap = nil
		ps.Reset(maxID + 1)
		return
	}
	// Sparse or negative IDs: slot by set position via the remap.
	ps.Reset(len(set))
	if ps.remap == nil {
		ps.remap = make(map[int]int, len(set))
	} else {
		clear(ps.remap)
	}
	for i, c := range set {
		ps.remap[c.ID] = i
	}
}

// Reset sizes the store to n directly-indexed slots, keeping existing
// slot capacity.
func (ps *PathSet) Reset(n int) {
	ps.remap = nil
	if cap(ps.paths) < n {
		next := make([]Path, n)
		copy(next, ps.paths)
		ps.paths = next
		return
	}
	ps.paths = ps.paths[:n]
}

// slot resolves a comm ID to its slot index.
func (ps *PathSet) slot(id int) int {
	if ps.remap == nil {
		return id
	}
	return ps.remap[id]
}

// Acquire returns the slot of comm id emptied, with capacity for at least
// capHint links, ready to be built with append. Callers must Set the final
// slice back (append may move it).
func (ps *PathSet) Acquire(id, capHint int) Path {
	s := ps.slot(id)
	p := ps.paths[s]
	if cap(p) < capHint {
		p = make(Path, 0, capHint)
		ps.paths[s] = p
	}
	return p[:0]
}

// Set stores p as the path of comm id (aliasing, no copy).
func (ps *PathSet) Set(id int, p Path) { ps.paths[ps.slot(id)] = p }

// SetCopy copies p into the slot of comm id, reusing its backing array.
func (ps *PathSet) SetCopy(id int, p Path) {
	ps.Set(id, append(ps.Acquire(id, len(p)), p...))
}

// Get returns the path stored for comm id.
func (ps *PathSet) Get(id int) Path { return ps.paths[ps.slot(id)] }

// Clone returns a deep copy of the routing — paths and flow list — for
// callers that must keep a workspace-aliasing routing beyond the next
// solver call on the same workspace (see the Workspace pooling contract).
func (r Routing) Clone() Routing {
	flows := make([]Flow, len(r.Flows))
	for i, f := range r.Flows {
		f.Path = f.Path.Clone()
		flows[i] = f
	}
	return Routing{Mesh: r.Mesh, Topo: r.Topo, Flows: flows}
}
