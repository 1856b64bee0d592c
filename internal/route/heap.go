package route

// LoadHeap is an indexed max-heap over a tracker's link loads, ordered by
// decreasing load with ties by increasing link id — exactly the
// LinksByLoadDesc scan order. It replaces the full rebuild-and-sort the
// local-search heuristics historically paid after every applied move:
// instead of re-sorting all loaded links, the caller pushes only the links
// whose load changed, and each push updates that link's single entry in
// place (pos[id] records where it sits).
//
// Contract: after Init, every load mutation on the tracker must be
// followed by Push of the affected link ids before the next Pop, or pops
// may surface a stale ordering. A popped link leaves the heap until it is
// pushed again; SetAside/Reactivate implement the "skip this link until
// the next applied move" idiom of XYI.
//
// The zero value is empty; size it with Init. A LoadHeap is single-
// goroutine state, pooled in workspace scratch like the tracker it tracks.
type LoadHeap struct {
	t       *LoadTracker
	entries []heapEntry
	// pos[id] is the index of link id's entry in entries, or -1 when the
	// link has none.
	pos   []int32
	aside []int32
}

// heapEntry is one link's heap element: its load as of its last push.
type heapEntry struct {
	load float64
	id   int32
}

// less orders the heap: decreasing load, ties by increasing link id — a
// total order, so successive pops yield exactly the sorted sequence.
func (a heapEntry) less(b heapEntry) bool {
	if a.load != b.load {
		return a.load > b.load
	}
	return a.id < b.id
}

// Init binds the heap to the tracker and rebuilds it from every currently
// loaded link, reusing the heap's backing arrays.
func (h *LoadHeap) Init(t *LoadTracker) {
	h.t = t
	n := len(t.loads)
	if cap(h.pos) < n {
		h.pos = make([]int32, n)
	}
	h.pos = h.pos[:n]
	h.entries = h.entries[:0]
	h.aside = h.aside[:0]
	for id, load := range t.loads {
		h.pos[id] = -1
		if load > 0 {
			h.entries = append(h.entries, heapEntry{load: load, id: int32(id)})
		}
	}
	// Bottom-up heapify, then index every entry's final position.
	for i := len(h.entries)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	for i, e := range h.entries {
		h.pos[e.id] = int32(i)
	}
}

// Push registers the current load of link id, updating its entry in place
// or inserting one; pushing a link whose load did not change is a no-op.
// A link at zero load loses its entry and stops surfacing.
func (h *LoadHeap) Push(id int) {
	load := h.t.loads[id]
	i := int(h.pos[id])
	if load <= 0 {
		if i >= 0 {
			h.removeAt(i)
		}
		return
	}
	e := heapEntry{load: load, id: int32(id)}
	switch {
	case i < 0:
		h.entries = append(h.entries, e)
		h.siftUp(len(h.entries) - 1)
	case h.entries[i].load != load:
		h.entries[i] = e
		h.fix(i)
	}
}

// Pop removes and returns the most-loaded link (ties by smallest id). ok
// is false when the heap is empty.
func (h *LoadHeap) Pop() (id int, ok bool) {
	if len(h.entries) == 0 {
		return 0, false
	}
	id = int(h.entries[0].id)
	h.removeAt(0)
	return id, true
}

// removeAt deletes the entry at index i, filling the hole with the last
// entry and restoring heap order around it.
func (h *LoadHeap) removeAt(i int) {
	h.pos[h.entries[i].id] = -1
	last := len(h.entries) - 1
	if i != last {
		h.entries[i] = h.entries[last]
	}
	h.entries = h.entries[:last]
	if i < last {
		h.fix(i)
	}
}

// SetAside records a popped link as set aside: it stays out of the heap
// until the next Reactivate, so subsequent pops move on to the next
// most-loaded link.
func (h *LoadHeap) SetAside(id int) {
	h.aside = append(h.aside, int32(id))
}

// Reactivate re-pushes every set-aside link at its current load — the
// "every link is back in play after an applied move" step of the rescan
// heuristics. Callers push the changed links themselves (Push), in any
// order relative to Reactivate.
func (h *LoadHeap) Reactivate() {
	for _, id := range h.aside {
		h.Push(int(id))
	}
	h.aside = h.aside[:0]
}

// fix restores heap order around index i after its entry changed.
func (h *LoadHeap) fix(i int) {
	if h.siftUp(i) == i {
		h.siftDown(i)
	}
}

// siftUp moves entry i toward the root and returns its final index.
func (h *LoadHeap) siftUp(i int) int {
	e := h.entries[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(h.entries[parent]) {
			break
		}
		h.entries[i] = h.entries[parent]
		h.pos[h.entries[i].id] = int32(i)
		i = parent
	}
	h.entries[i] = e
	h.pos[e.id] = int32(i)
	return i
}

func (h *LoadHeap) siftDown(i int) {
	e := h.entries[i]
	n := len(h.entries)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.entries[r].less(h.entries[child]) {
			child = r
		}
		if !h.entries[child].less(e) {
			break
		}
		h.entries[i] = h.entries[child]
		h.pos[h.entries[i].id] = int32(i)
		i = child
	}
	h.entries[i] = e
	h.pos[e.id] = int32(i)
}
