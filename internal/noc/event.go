// Package noc is a discrete-event, packet-level network-on-chip simulator
// used to cross-validate routings produced by the heuristics: packets are
// injected periodically at each communication's requested rate, forwarded
// store-and-forward or cut-through along the routing's explicit paths
// (table-based source routing), and serialized on links whose frequencies
// are the DVFS assignments of the power model. The paper's evaluation is
// analytic (link loads → power); this substrate replays the same routings
// dynamically and checks that delivered throughput, link utilization and
// energy agree with the analytic figures.
//
// The engine follows the repository's dense-workspace discipline
// (route.Workspace, power.Evaluator): events live in a calendar queue
// whose buckets link through one int32-indexed node arena (no interface
// boxing, no per-event allocation), packets in a freelist arena addressed
// by int32 handles, and each flow's path is
// precompiled to flat link-id/VC-class slices at bind time. A Simulator is
// rebindable — Reset (or the pooling front door, Workspace.Simulator)
// reuses every internal buffer across routings, so multi-trial callers run
// the simulator with O(1) steady-state allocations per run (the returned
// Stats is the only fresh memory). See Workspace for the reuse contract.
//
// Horizon accounting is exact: per-link busy time is clamped to the
// simulated window (utilization never exceeds 1.0), and every injected
// packet is accounted for at the horizon — Stats.Injected =
// Stats.Delivered + Stats.Stalled + Stats.InFlight.
//
// Deadlock freedom: with unbounded FIFOs the simulator cannot deadlock;
// the paper assumes an equivalent deadlock-avoidance mechanism (resource
// ordering [5] or escape channels [3]). With finite buffers
// (Config.BufferPackets), routings whose channel dependency graph is
// cyclic can genuinely deadlock — internal/deadlock's escape-channel
// assignment (AssignClasses) restores progress.
package noc

// eventKind discriminates simulator events.
type eventKind uint32

const (
	evInject   eventKind = iota // a flow emits its next packet
	evLinkFree                  // a link finishes transmitting (tail gone)
	evArrive                    // a packet (head) reaches its next router
	// evFreeArrive fuses a link's tail departure with the packet's
	// arrival at the next router — under store-and-forward the two always
	// share one timestamp and adjacent sequence numbers, so processing
	// them as one event halves the queue volume without reordering
	// anything (see startNext).
	evFreeArrive
)

// carriesPacket reports whether the event moves a packet to a router; such
// events still pending at the horizon are packets in flight.
func (k eventKind) carriesPacket() bool { return k == evArrive || k == evFreeArrive }

// event is one scheduled simulator occurrence, packed to 16 bytes. key
// carries the tie-break sequence number in its upper 30 bits and the
// eventKind in its lower 2: comparing keys compares sequence numbers, so
// (time, key) is the same total order as the historical (time, seq) —
// fully deterministic and independent of the queue implementation, the
// property the differential test against the container/heap engine relies
// on. arg is the flow index (evInject), the link id (evLinkFree) or the
// packet arena handle (evArrive, evFreeArrive).
type event struct {
	time float64
	key  uint32
	arg  int32
}

func (e event) kind() eventKind { return eventKind(e.key & 3) }

// maxEventSeq bounds the 30-bit sequence space (~10⁹ events per run).
const maxEventSeq = 1 << 30

// maxDay caps an event's day number, so a far-future time (or +Inf) cannot
// overflow the int64 conversion; capping keeps the map monotone.
const maxDay = 1 << 62

// calNode is one pending event in the calendar's node arena: the event,
// its day (see eventQueue) and the next node of its bucket list, or of the
// freelist once popped.
type calNode struct {
	ev   event
	day  int64
	next int32
}

// eventQueue is a calendar queue (Brown, "Calendar queues", CACM 1988) of
// events in exact (time, key) order. Times are non-negative.
//
// An event's day is int64(time·inv), so a day spans 1/inv µs. Day d
// lives in bucket d mod len(head), a singly linked list sorted by
// (time, key); since a new event's key is larger than every pending key,
// the list order is by time with ties in push order, and a push not
// earlier than the bucket's tail appends in O(1). All buckets link through
// one int32-indexed node arena with a freelist, so memory is O(pending
// events + buckets) and a warmed queue never allocates.
//
// pop scans days upward from cur, the day of the last pop, and takes a
// bucket's front only if it belongs to the day being scanned (not to a
// later revolution of the calendar). After a full revolution of empty
// days it jumps straight to the smallest front day.
//
// Exactness: int64(t·inv) is monotone in t, and every pending event has a
// day ≥ cur (a push earlier than cur rewinds cur). When the scan reaches
// day d, no pending event is earlier than d, so the sorted bucket of d
// holds the earliest pending event at its front if any event falls on d.
// The pop order is therefore the (time, key) order for any width and
// bucket count — those only decide speed. The simulator never pushes
// before the last pop (a push is at or after the current event's time);
// Simulator.Reset sizes the calendar (see sizeCalendar).
type eventQueue struct {
	nodes []calNode
	free  int32 // freelist head in nodes, −1 when empty
	// head and tail are each bucket's first and last node, −1 when empty.
	head, tail []int32
	mask       int64   // len(head) − 1; len(head) is a power of two
	inv        float64 // days per µs; 0 puts every finite time on day 0
	cur        int64   // day of the last pop; no pending event is earlier
	n          int
	seq        uint32
}

// reset empties the queue and shapes its calendar: buckets (a power of
// two) and days of 1/inv µs. Storage is retained.
func (q *eventQueue) reset(buckets int, inv float64) {
	if cap(q.head) < buckets {
		q.head = make([]int32, buckets)
		q.tail = make([]int32, buckets)
	}
	q.head, q.tail = q.head[:buckets], q.tail[:buckets]
	for b := range q.head {
		q.head[b], q.tail[b] = -1, -1
	}
	q.mask, q.inv = int64(buckets-1), inv
	q.nodes, q.free = q.nodes[:0], -1
	q.cur, q.n, q.seq = 0, 0, 0
}

func (q *eventQueue) len() int { return q.n }

// dayOf maps a time to its day, monotonically.
func (q *eventQueue) dayOf(t float64) int64 {
	x := t * q.inv
	if !(x < maxDay) { // also +Inf and the NaN of ∞·0
		return maxDay
	}
	return int64(x)
}

// push schedules an event, stamping the tie-break sequence number.
func (q *eventQueue) push(time float64, kind eventKind, arg int32) {
	if q.seq == maxEventSeq {
		panic("noc: event sequence space exhausted (run exceeds 2^30 events)")
	}
	e := event{time: time, key: q.seq<<2 | uint32(kind), arg: arg}
	q.seq++
	q.n++
	day := q.dayOf(time)
	if day < q.cur {
		q.cur = day
	}
	i := q.free
	if i >= 0 {
		q.free = q.nodes[i].next
	} else {
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, calNode{})
	}
	nodes := q.nodes
	nodes[i] = calNode{ev: e, day: day, next: -1}
	b := day & q.mask
	last := q.tail[b]
	switch {
	case last < 0:
		q.head[b], q.tail[b] = i, i
	case time >= nodes[last].ev.time:
		nodes[last].next, q.tail[b] = i, i
	default:
		// Insert before the first later node; the tail is one, so the
		// walk stops inside the list.
		prev, c := int32(-1), q.head[b]
		for nodes[c].ev.time <= time {
			prev, c = c, nodes[c].next
		}
		nodes[i].next = c
		if prev < 0 {
			q.head[b] = i
		} else {
			nodes[prev].next = i
		}
	}
}

// pop removes the earliest event; callers must check len first.
func (q *eventQueue) pop() event {
	day, scanned := q.cur, int64(0)
	for {
		b := day & q.mask
		if h := q.head[b]; h >= 0 && q.nodes[h].day == day {
			nd := &q.nodes[h]
			q.head[b] = nd.next
			if nd.next < 0 {
				q.tail[b] = -1
			}
			e := nd.ev
			nd.next, q.free = q.free, h
			q.n--
			q.cur = day
			return e
		}
		day++
		if scanned++; scanned > q.mask {
			day, scanned = q.earliestDay(), 0
		}
	}
}

// earliestDay returns the smallest front day over all buckets — the
// day of the next pop when a full revolution found nothing.
func (q *eventQueue) earliestDay() int64 {
	min := int64(maxDay)
	for _, h := range q.head {
		if h >= 0 && q.nodes[h].day < min {
			min = q.nodes[h].day
		}
	}
	return min
}

// inFlight counts the pending events that carry a packet.
func (q *eventQueue) inFlight() int {
	n := 0
	for _, h := range q.head {
		for c := h; c >= 0; c = q.nodes[c].next {
			if q.nodes[c].ev.kind().carriesPacket() {
				n++
			}
		}
	}
	return n
}
