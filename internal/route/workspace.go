package route

import (
	"repro/internal/comm"
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
// Platform state is kept per bound platform: the load tracker and every
// policy scratch value of each of the last maxPlatforms platforms stay
// pooled, so a worker that alternates between platforms (a service shard
// answering mesh and torus requests) rebuilds nothing on a switch.
//
// The zero value is ready to use after Bind.
type Workspace struct {
	// cur is the bound platform's state; platforms holds every kept one,
	// most recently bound first, cur included.
	cur       *platformState
	platforms []*platformState
	paths     PathSet
	flows     []Flow
}

// maxPlatforms caps the platforms a workspace keeps state for; binding
// one more drops the least recently bound.
const maxPlatforms = 4

// platformState is the pooled state of one bound platform.
type platformState struct {
	topo    topo.Topology
	spec    string
	tracker *LoadTracker
	scratch map[string]any
}

// NewWorkspace returns an empty workspace; it binds lazily to the
// platform of the first solver call that uses it.
func NewWorkspace() *Workspace { return &Workspace{} }

// Bind prepares the workspace for solving on tp. A platform bound before
// is matched by pointer, or else by its canonical Spec (identical core
// set and link id space), and gets its pooled tracker and scratch back;
// a new one gets fresh state, dropping the least recently bound platform
// when maxPlatforms are kept.
func (w *Workspace) Bind(tp topo.Topology) {
	if w.cur != nil && w.cur.topo == tp {
		return
	}
	i := w.find(func(ps *platformState) bool { return ps.topo == tp })
	if i < 0 {
		spec := tp.Spec()
		if i = w.find(func(ps *platformState) bool { return ps.spec == spec }); i >= 0 {
			w.platforms[i].topo = tp
			w.platforms[i].tracker.bind(tp)
		} else {
			if len(w.platforms) == maxPlatforms {
				w.platforms = w.platforms[:maxPlatforms-1]
			}
			w.platforms = append(w.platforms, &platformState{topo: tp, spec: spec, tracker: NewLoadTrackerTopo(tp)})
			i = len(w.platforms) - 1
		}
	}
	w.cur = w.platforms[i]
	copy(w.platforms[1:i+1], w.platforms[:i])
	w.platforms[0] = w.cur
}

// find returns the index of the first kept platform matching, or -1.
func (w *Workspace) find(match func(*platformState) bool) int {
	for i, ps := range w.platforms {
		if match(ps) {
			return i
		}
	}
	return -1
}

// Tracker returns the workspace's pooled LoadTracker, reset to all-zero
// loads. Each solver call works against a freshly reset tracker; nested
// users (BEST re-running a candidate) simply reset again.
func (w *Workspace) Tracker() *LoadTracker {
	w.cur.tracker.Reset()
	return w.cur.tracker
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
// values belong to the bound platform: each kept platform has its own, so
// they may be sized to it.
func (w *Workspace) Scratch(key string, build func() any) any {
	ps := w.cur
	if ps.scratch == nil {
		ps.scratch = make(map[string]any)
	}
	s, ok := ps.scratch[key]
	if !ok {
		s = build()
		ps.scratch[key] = s
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
	return Routing{Topo: r.Topo, Flows: flows}
}
