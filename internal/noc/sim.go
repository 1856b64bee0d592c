package noc

import (
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/topo"
)

// Switching selects the forwarding discipline of the routers.
type Switching int

const (
	// StoreAndForward retransmits a packet only after it has fully
	// arrived at a router.
	StoreAndForward Switching = iota
	// CutThrough pipelines: the next link may start forwarding as soon
	// as the head flit arrives, one flit time after the upstream link
	// started, while the tail constrains the downstream completion —
	// the latency model of wormhole/virtual-cut-through networks with
	// ample buffering (the paper's routers; deadlock handled by escape
	// channels [3] / resource ordering [5]).
	CutThrough
)

// String names the switching mode.
func (s Switching) String() string {
	if s == CutThrough {
		return "cut-through"
	}
	return "store-and-forward"
}

// Config tunes a simulation run. Rates are in Mb/s = bits/µs, times in µs.
type Config struct {
	// PacketBits is the packet size; all flows use fixed-size packets.
	// Zero means 2048 bits.
	PacketBits float64
	// FlitBits is the flit size used by CutThrough switching. Zero
	// means 128 bits.
	FlitBits float64
	// Horizon is the simulated duration in µs. Zero means 500 µs.
	Horizon float64
	// Warmup discards latency/throughput samples injected before this
	// time (µs), letting queues reach steady state. Zero keeps all.
	Warmup float64
	// Switching selects store-and-forward (default) or cut-through.
	Switching Switching
	// BufferPackets bounds each link's input queue; a link refuses to
	// accept a packet whose *next* hop's queue is full, modelling
	// credit-based backpressure. Zero means unbounded buffers. With
	// finite buffers, routings whose channel dependency graph is cyclic
	// (see internal/deadlock) can genuinely deadlock; Stats.Stalled
	// reports packets frozen at the horizon.
	BufferPackets int
	// RouterPJPerBit is the router datapath energy (crossbar traversal
	// plus arbitration) charged per bit each time a router starts
	// forwarding a packet onto a link. Zero means 0.5 pJ/bit, a
	// 45 nm-class estimate. Feeds Stats.Energy.RouterNJ.
	RouterPJPerBit float64
	// BufferPJPerBit is the input-buffer energy (one write plus one
	// read) charged per bit when a transit packet is queued at a router.
	// Source-side NIC queues are not router buffers and are free. Zero
	// means 0.3 pJ/bit. Feeds Stats.Energy.BufferNJ.
	BufferPJPerBit float64
}

func (c *Config) setDefaults() {
	if c.PacketBits == 0 {
		c.PacketBits = 2048
	}
	if c.FlitBits == 0 {
		c.FlitBits = 128
	}
	if c.Horizon == 0 {
		c.Horizon = 500
	}
	if c.RouterPJPerBit == 0 {
		c.RouterPJPerBit = 0.5
	}
	if c.BufferPJPerBit == 0 {
		c.BufferPJPerBit = 0.3
	}
}

// packet is one in-flight packet, held in the simulator's freelist arena
// and addressed by int32 handle. The historical engine allocated a fresh
// packet per hop; the arena packet is advanced in place instead (the field
// values at each hop are identical).
type packet struct {
	flow     int32   // index into the routing's flows
	hop      int32   // next path hop to traverse
	injected float64 // injection time
	bits     float64
	// prevDone is the time the packet's tail cleared the previous link;
	// cut-through uses it to constrain downstream completions.
	prevDone float64
}

// packetArena is the freelist packet pool. Handles of delivered packets
// are recycled; the backing array is retained across Reset, so a warmed
// simulator never allocates per packet.
type packetArena struct {
	packets []packet
	free    []int32
}

func (a *packetArena) reset() {
	a.packets = a.packets[:0]
	a.free = a.free[:0]
}

func (a *packetArena) alloc() int32 {
	if n := len(a.free); n > 0 {
		h := a.free[n-1]
		a.free = a.free[:n-1]
		return h
	}
	a.packets = append(a.packets, packet{})
	return int32(len(a.packets) - 1)
}

func (a *packetArena) release(h int32) { a.free = append(a.free, h) }

func (a *packetArena) at(h int32) *packet { return &a.packets[h] }

// pktQueue is a FIFO of packet handles with an amortized-O(1) pop that
// recycles its backing array instead of re-slicing it away.
type pktQueue struct {
	buf  []int32
	head int
}

func (q *pktQueue) reset() {
	q.buf = q.buf[:0]
	q.head = 0
}

func (q *pktQueue) len() int { return len(q.buf) - q.head }

func (q *pktQueue) push(h int32) { q.buf = append(q.buf, h) }

func (q *pktQueue) front() int32 { return q.buf[q.head] }

func (q *pktQueue) popFront() int32 {
	h := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	} else if q.head >= 32 && q.head*2 >= len(q.buf) {
		// Compact so a queue that never fully drains cannot grow without
		// bound.
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	return h
}

// numClasses is the number of virtual channels per physical link: class 0
// is the escape channel, class 1 the adaptive one (internal/deadlock).
// Runs without a class assignment use class 0 only.
const numClasses = 2

// linkState is the per-link serialization state. Queues, buffers and
// blocked-upstream lists are per virtual channel; the physical serializer
// (busy flag, frequency) is shared.
type linkState struct {
	freq     float64 // assigned DVFS frequency (Mb/s); 0 = unused link
	busy     bool
	busyTime float64
	queues   [numClasses]pktQueue
	// reserved counts in-flight packets that have claimed a buffer slot
	// but not yet arrived (finite-buffer mode).
	reserved [numClasses]int
	// relayQueued counts queued transit packets (hop > 0): only these
	// occupy the router's finite buffer; freshly injected packets wait
	// in the source NIC's unbounded queue.
	relayQueued [numClasses]int
	// waiters lists upstream link ids blocked on this VC's buffer. The
	// backing arrays circulate through the simulator's waiter pool.
	waiters [numClasses][]int32
}

func (ls *linkState) queuedPackets() int {
	n := 0
	for c := 0; c < numClasses; c++ {
		n += ls.queues[c].len()
	}
	return n
}

// Simulator replays a routing as discrete packet traffic. It is rebindable:
// Reset (or Workspace.Simulator) points it at a new routing while reusing
// every internal buffer — event calendar, packet arena, per-link queues
// and the precompiled path tables. A Simulator is not safe for concurrent
// use.
type Simulator struct {
	routing route.Routing
	model   power.Model
	cfg     Config
	// tp is the routing's platform (the mesh itself on mesh routings);
	// every link-id and coordinate lookup goes through it, so the engine
	// replays torus and circulant routings unchanged.
	tp      topo.Topology
	links   []linkState
	tracer  *Tracer
	observe func(Delivery)

	// Pooled per-component energy accumulators (nJ), copied into the
	// Stats.Energy slab at finalize. linkSrc maps each used link id to
	// the CoordIndex of its transmitting router, precomputed at Reset so
	// charging router energy costs one flat-slice add per transmission.
	routerE []float64
	bufferE []float64
	linkSrc []int32

	// Flat per-flow path tables, built once per Reset: flow f's hop h
	// uses link pathLink[flowOff[f]+h] on VC class pathClass[flowOff[f]+h].
	flowOff   []int32
	pathLink  []int32
	pathClass []uint8
	// period is each flow's packet inter-injection time (µs).
	period []float64

	// Dense per-communication accounting: flow f delivers into
	// comms[flowComm[f]], the slot of communication commIDs[slot].
	// Deliveries accumulate in event order and fold into Stats.PerComm
	// at finalize. commSlot is the Reset-time ID → slot scratch.
	flowComm []int32
	commIDs  []int
	comms    []CommStats
	commSlot map[int]int32

	q     eventQueue
	arena packetArena
	// loads is the Reset-time scratch for the routing's analytic loads.
	loads []float64
	// waiterPool recycles drained waiter lists (finite-buffer mode).
	waiterPool [][]int32

	bound bool // a successful New/Reset has configured the simulator
	ran   bool // Run consumed the current binding
}

// AssignClasses installs a per-hop virtual-channel schedule, e.g. the
// escape-channel assignment of internal/deadlock (Assignment.Classes).
// Each flow's slice must cover its path; classes are 0 (escape) or 1
// (adaptive). Call before Run; pass nil to revert to single-class
// operation. Reset reverts to single-class operation too.
func (s *Simulator) AssignClasses(classes [][]int) error {
	if classes == nil {
		for i := range s.pathClass {
			s.pathClass[i] = 0
		}
		return nil
	}
	if len(classes) != len(s.routing.Flows) {
		return fmt.Errorf("noc: %d class vectors for %d flows", len(classes), len(s.routing.Flows))
	}
	for f, cs := range classes {
		if len(cs) != len(s.routing.Flows[f].Path) {
			return fmt.Errorf("noc: flow %d: %d classes for %d hops", f, len(cs), len(s.routing.Flows[f].Path))
		}
		for h, c := range cs {
			if c < 0 || c >= numClasses {
				return fmt.Errorf("noc: flow %d hop %d: class %d out of range", f, h, c)
			}
		}
	}
	for f, cs := range classes {
		off := s.flowOff[f]
		for h, c := range cs {
			s.pathClass[off+int32(h)] = uint8(c)
		}
	}
	return nil
}

// New prepares a simulator for the routing: per-link DVFS frequencies are
// assigned by quantizing the routing's analytic loads under the model,
// exactly as the system would configure the links. An error is returned
// when the routing is infeasible (some load above the top frequency) —
// such routings count as failures in the paper and have no operating
// point to simulate. Multi-trial callers should pool one simulator via
// Workspace instead of calling New per trial.
func New(r route.Routing, model power.Model, cfg Config) (*Simulator, error) {
	s := &Simulator{}
	if err := s.Reset(r, model, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rebinds the simulator to a routing, model and configuration,
// reusing all internal storage — the pooling hook behind Workspace. Any
// attached Tracer, delivery observer and class assignment are detached
// (the simulator starts from the same clean slate New gives). On error
// the simulator is left unbound; Reset again before Run. The previous
// run's Stats remain valid: they share no simulator memory.
func (s *Simulator) Reset(r route.Routing, model power.Model, cfg Config) error {
	cfg.setDefaults()
	s.bound, s.ran = false, false
	s.tracer, s.observe = nil, nil

	tp := r.Topo
	if tp == nil {
		return fmt.Errorf("noc: routing has no platform")
	}
	s.tp = tp

	// Per-link state: grow to the platform's link-id space and clear,
	// keeping queue and waiter capacities.
	n := tp.LinkIDSpace()
	if cap(s.links) < n {
		s.links = make([]linkState, n)
	}
	s.links = s.links[:n]
	for i := range s.links {
		ls := &s.links[i]
		ls.freq, ls.busy, ls.busyTime = 0, false, 0
		for c := 0; c < numClasses; c++ {
			ls.queues[c].reset()
			ls.reserved[c], ls.relayQueued[c] = 0, 0
			if ls.waiters[c] != nil {
				s.waiterPool = append(s.waiterPool, ls.waiters[c][:0])
				ls.waiters[c] = nil
			}
		}
	}
	s.arena.reset()

	// Energy accumulators: grow to the platform and clear.
	cores := tp.NumCores()
	if cap(s.routerE) < cores {
		s.routerE = make([]float64, cores)
	}
	s.routerE = s.routerE[:cores]
	for i := range s.routerE {
		s.routerE[i] = 0
	}
	if cap(s.bufferE) < n {
		s.bufferE = make([]float64, n)
		s.linkSrc = make([]int32, n)
	}
	s.bufferE, s.linkSrc = s.bufferE[:n], s.linkSrc[:n]
	for i := range s.bufferE {
		s.bufferE[i] = 0
		s.linkSrc[i] = -1
	}

	// DVFS operating point from the analytic loads.
	s.loads = r.LoadsInto(s.loads)
	used, maxFreq := 0, 0.0
	for id, load := range s.loads {
		if load == 0 {
			continue
		}
		f, err := model.Quantize(load)
		if err != nil {
			return fmt.Errorf("noc: link %v: %w", tp.LinkByID(id), err)
		}
		s.links[id].freq = f
		s.linkSrc[id] = int32(tp.CoordIndex(tp.LinkByID(id).From))
		used, maxFreq = used+1, max(maxFreq, f)
	}

	// Precompile each flow's path to flat link-id/class tables and its
	// injection period.
	nf := len(r.Flows)
	if cap(s.flowOff) < nf+1 {
		s.flowOff = make([]int32, 0, nf+1)
	}
	if cap(s.period) < nf {
		s.period = make([]float64, 0, nf)
	}
	s.flowOff, s.period = s.flowOff[:0], s.period[:0]
	s.pathLink, s.pathClass = s.pathLink[:0], s.pathClass[:0]
	s.flowComm, s.commIDs, s.comms = s.flowComm[:0], s.commIDs[:0], s.comms[:0]
	if s.commSlot == nil {
		s.commSlot = make(map[int]int32)
	}
	clear(s.commSlot)
	off := int32(0)
	for _, fl := range r.Flows {
		s.flowOff = append(s.flowOff, off)
		s.period = append(s.period, cfg.PacketBits/fl.Comm.Rate)
		for _, l := range fl.Path {
			s.pathLink = append(s.pathLink, int32(tp.LinkID(l)))
			s.pathClass = append(s.pathClass, 0)
			off++
		}
		slot, ok := s.commSlot[fl.Comm.ID]
		if !ok {
			slot = int32(len(s.commIDs))
			s.commSlot[fl.Comm.ID] = slot
			s.commIDs = append(s.commIDs, fl.Comm.ID)
			s.comms = append(s.comms, CommStats{})
		}
		s.comms[slot].RequestedRate += fl.Comm.Rate
		s.flowComm = append(s.flowComm, slot)
	}
	s.flowOff = append(s.flowOff, off)
	s.q.reset(sizeCalendar(nf, used, cfg.PacketBits, maxFreq))

	s.routing, s.model, s.cfg = r, model, cfg
	s.bound = true
	return nil
}

// sizeCalendar shapes the event calendar from quantities the binding
// already has: a day is a quarter of the shortest packet transmission
// time (the finest spacing of link events), and there are at least two
// buckets per event the routing can keep pending — one injection per flow
// plus a link release and an arrival per used link. A routing with no
// used link gets inv 0: one day, a sorted list. The queue's order does
// not depend on either choice (see eventQueue).
func sizeCalendar(flows, usedLinks int, packetBits, maxFreq float64) (buckets int, inv float64) {
	buckets = 1
	for buckets < 2*(flows+2*usedLinks) {
		buckets *= 2
	}
	inv = 4 * maxFreq / packetBits
	if !(inv > 0) || math.IsInf(inv, 1) {
		inv = 0
	}
	return buckets, inv
}

// hops returns flow f's path length.
func (s *Simulator) hops(f int32) int32 { return s.flowOff[f+1] - s.flowOff[f] }

// Run executes the simulation until the horizon and returns the collected
// statistics. Run may be called once per New or Reset; call Reset (or go
// through Workspace.Simulator) between runs. The returned Stats owns its
// memory and stays valid across later Resets.
func (s *Simulator) Run() *Stats {
	if !s.bound || s.ran {
		panic("noc: Run needs a fresh New or Reset (one Run per binding)")
	}
	s.ran = true
	space := len(s.links)
	st := &Stats{
		Horizon:         s.cfg.Horizon,
		Warmup:          s.cfg.Warmup,
		LinkUtilization: make([]float64, space),
		LinkFreq:        make([]float64, space),
	}

	// Stagger flow start phases deterministically across one packet
	// period so same-rate flows do not inject in lockstep.
	for i := range s.routing.Flows {
		phase := s.period[i] * float64(i%7) / 7.0
		s.q.push(phase, evInject, int32(i))
	}

	for s.q.len() > 0 {
		e := s.q.pop()
		if e.time > s.cfg.Horizon {
			// A popped arrival past the horizon is a packet
			// mid-transmission, not a silently vanished one.
			if e.kind().carriesPacket() {
				st.InFlight++
			}
			break
		}
		switch e.kind() {
		case evInject:
			f := e.arg
			st.Injected++
			h := s.arena.alloc()
			*s.arena.at(h) = packet{flow: f, injected: e.time, bits: s.cfg.PacketBits, prevDone: e.time}
			if s.tracer != nil {
				s.tracer.record(TraceEvent{Time: e.time, Kind: "inject", CommID: s.routing.Flows[f].Comm.ID})
			}
			s.arrive(st, h, e.time)
			s.q.push(e.time+s.period[f], evInject, f)
		case evFreeArrive:
			// Store-and-forward fusion: the tail clears the link and the
			// packet reaches the next router at the same instant. Free
			// the link first, then arrive — exactly the order the two
			// split events (adjacent sequence numbers, same timestamp)
			// process in.
			h := e.arg
			pkt := s.arena.at(h)
			id := s.pathLink[s.flowOff[pkt.flow]+pkt.hop-1]
			s.links[id].busy = false
			s.startNext(id, e.time)
			if s.tracer != nil {
				s.tracer.record(TraceEvent{
					Time: e.time, Kind: "hop",
					CommID: s.routing.Flows[pkt.flow].Comm.ID, Hop: int(pkt.hop),
				})
			}
			s.arrive(st, h, e.time)
		case evArrive:
			pkt := s.arena.at(e.arg)
			if s.tracer != nil {
				s.tracer.record(TraceEvent{
					Time: e.time, Kind: "hop",
					CommID: s.routing.Flows[pkt.flow].Comm.ID, Hop: int(pkt.hop),
				})
			}
			s.arrive(st, e.arg, e.time)
		case evLinkFree:
			s.links[e.arg].busy = false
			s.startNext(e.arg, e.time)
		}
	}
	// Everything still scheduled to arrive is in flight at the horizon.
	st.InFlight += s.q.inFlight()
	s.finalize(st)
	return st
}

// arrive handles a packet reaching a router: deliver it (the event time of
// a final arrival is the tail's), or queue it on the next link of its
// path.
func (s *Simulator) arrive(st *Stats, h int32, now float64) {
	pkt := s.arena.at(h)
	if pkt.hop == s.hops(pkt.flow) {
		fl := &s.routing.Flows[pkt.flow]
		if s.tracer != nil {
			s.tracer.record(TraceEvent{
				Time: now, Kind: "deliver", CommID: fl.Comm.ID,
				Hop: int(pkt.hop), Lat: now - pkt.injected,
			})
		}
		if s.observe != nil {
			s.observe(Delivery{CommID: fl.Comm.ID, Injected: pkt.injected, Time: now, Bits: pkt.bits})
		}
		st.Delivered++
		if pkt.injected >= s.cfg.Warmup {
			s.comms[s.flowComm[pkt.flow]].record(pkt.bits, now-pkt.injected)
		}
		s.arena.release(h)
		return
	}
	i := s.flowOff[pkt.flow] + pkt.hop
	id := s.pathLink[i]
	class := int(s.pathClass[i])
	ls := &s.links[id]
	if pkt.hop > 0 {
		// A transit packet lands in the router's input buffer (one write
		// plus one read); freshly injected packets wait in the source
		// NIC's queue, which is not a router buffer.
		s.bufferE[id] += s.cfg.BufferPJPerBit * pkt.bits * 1e-3
		if s.cfg.BufferPackets > 0 {
			ls.reserved[class]-- // the claimed slot is now occupied
			ls.relayQueued[class]++
		}
	}
	ls.queues[class].push(h)
	s.startNext(id, now)
}

// nextHopTarget returns the link and VC class the packet will need after
// the given hop, or link −1 when that hop delivers it to its sink.
func (s *Simulator) nextHopTarget(h int32) (link int32, class int) {
	pkt := s.arena.at(h)
	i := s.flowOff[pkt.flow] + pkt.hop + 1
	if i >= s.flowOff[pkt.flow+1] {
		return -1, 0
	}
	return s.pathLink[i], int(s.pathClass[i])
}

// hasRoom reports whether the VC buffer (link id, class) can accept one
// more transit packet, counting queued transit packets and slots claimed
// by in-flight ones. Source-side injections do not consume router
// buffers.
func (s *Simulator) hasRoom(id int32, class int) bool {
	if s.cfg.BufferPackets <= 0 || id < 0 {
		return true
	}
	return s.links[id].relayQueued[class]+s.links[id].reserved[class] < s.cfg.BufferPackets
}

// startNext begins transmitting a head-of-line packet if the link is idle
// and, with finite buffers, the downstream VC buffer has room (credit
// backpressure). Virtual channels are scanned escape-class first, so a
// blocked adaptive queue never starves the escape network — the dynamic
// counterpart of Duato's condition. Under store-and-forward the packet
// reaches the next router when its tail does; under cut-through the head
// is forwarded one flit time after service starts, while the tail cannot
// clear this link earlier than one flit after it cleared the previous
// one.
func (s *Simulator) startNext(id int32, now float64) {
	ls := &s.links[id]
	if ls.busy {
		return
	}
	h := int32(-1)
	var class, downClass int
	var downstream int32
	for c := 0; c < numClasses; c++ {
		if ls.queues[c].len() == 0 {
			continue
		}
		head := ls.queues[c].front()
		down, dc := s.nextHopTarget(head)
		if !s.hasRoom(down, dc) {
			// Blocked: retry when the downstream VC drains. Other
			// classes may still proceed — that is what VCs buy.
			s.links[down].waiters[dc] = appendUnique(s.links[down].waiters[dc], id)
			continue
		}
		h, class, downstream, downClass = head, c, down, dc
		break
	}
	if h < 0 {
		return
	}
	pkt := s.arena.at(h)
	flow, hop, bits, prevDone := pkt.flow, pkt.hop, pkt.bits, pkt.prevDone
	ls.queues[class].popFront()
	ls.busy = true // set before waking waiters: the wake chain may reach this link again
	if s.cfg.BufferPackets > 0 {
		if hop > 0 {
			ls.relayQueued[class]--
		}
		if downstream >= 0 {
			s.links[downstream].reserved[downClass]++
		}
		s.wakeWaiters(id, class, now)
	}
	// The transmitting router's datapath (crossbar + arbitration)
	// processes every bit it forwards; pJ × bits = 1e-3 nJ.
	s.routerE[s.linkSrc[id]] += s.cfg.RouterPJPerBit * bits * 1e-3
	tx := bits / ls.freq
	done := now + tx
	if s.cfg.Switching == CutThrough {
		if tail := prevDone + s.cfg.FlitBits/ls.freq; tail > done {
			done = tail
		}
	}
	// Busy time is only accrued inside the simulated window, so a
	// transmission completing past the horizon cannot push link
	// utilization above 1.0.
	end := done
	if end > s.cfg.Horizon {
		end = s.cfg.Horizon
	}
	ls.busyTime += end - now

	// Advance the packet onto the next hop in place.
	pkt.hop = hop + 1
	pkt.prevDone = done
	if s.cfg.Switching == CutThrough {
		arrival := done
		if head := now + s.cfg.FlitBits/ls.freq; head < done {
			arrival = head
		}
		if pkt.hop == s.hops(flow) {
			arrival = done // final delivery counts the tail
		}
		if arrival == done {
			// Tail-bound (or final-hop) pipelines coincide like
			// store-and-forward: fuse the pair.
			s.q.push(done, evFreeArrive, h)
		} else {
			s.q.push(done, evLinkFree, id)
			s.q.push(arrival, evArrive, h)
		}
	} else {
		// Store-and-forward: tail departure and next-router arrival
		// coincide, so one fused event carries both (the link id is
		// recomputed from the packet's advanced hop).
		s.q.push(done, evFreeArrive, h)
	}
}

// wakeWaiters retries upstream links that were blocked on this VC's
// buffer space. The drained list's backing array goes back to the waiter
// pool; re-blocking links append to a fresh pooled list, so the wake chain
// never mutates the snapshot it is iterating.
func (s *Simulator) wakeWaiters(id int32, class int, now float64) {
	ls := &s.links[id]
	w := ls.waiters[class]
	if len(w) == 0 {
		return
	}
	if n := len(s.waiterPool); n > 0 {
		ls.waiters[class] = s.waiterPool[n-1]
		s.waiterPool = s.waiterPool[:n-1]
	} else {
		ls.waiters[class] = nil
	}
	for _, up := range w {
		s.startNext(up, now)
	}
	s.waiterPool = append(s.waiterPool, w[:0])
}

func appendUnique[T comparable](xs []T, x T) []T {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

// finalize computes utilizations, energy and stall counts. The Energy
// breakdown is carved from one slab allocation; link energy is derived
// from the accrued busy time (leakage over the whole horizon, dynamic
// power only while transmitting), so activity accounting costs nothing
// per event.
func (s *Simulator) finalize(st *Stats) {
	st.PerComm = make(map[int]CommStats, len(s.commIDs))
	for slot, id := range s.commIDs {
		st.PerComm[id] = s.comms[slot]
	}
	cores, space := s.tp.NumCores(), len(s.links)
	slab := make([]float64, cores+2*space)
	e := &st.Energy
	e.RouterNJ = slab[:cores:cores]
	e.LinkNJ = slab[cores : cores+space : cores+space]
	e.BufferNJ = slab[cores+space:]
	copy(e.RouterNJ, s.routerE)
	copy(e.BufferNJ, s.bufferE)
	for id := range s.links {
		ls := &s.links[id]
		st.Stalled += ls.queuedPackets()
		if ls.freq == 0 {
			continue
		}
		st.LinkUtilization[id] = ls.busyTime / s.cfg.Horizon
		st.LinkFreq[id] = ls.freq
		p := s.model.Pleak + s.model.Dynamic(ls.freq)
		st.PowerMW += p
		st.ActiveLinks++
		// mW × µs = nJ: leakage for the whole horizon, dynamic switching
		// only while bits were on the wire.
		e.LinkNJ[id] = s.model.Pleak*s.cfg.Horizon + s.model.Dynamic(ls.freq)*ls.busyTime
	}
	for _, v := range e.RouterNJ {
		e.RouterTotalNJ += v
	}
	for _, v := range e.LinkNJ {
		e.LinkTotalNJ += v
	}
	for _, v := range e.BufferNJ {
		e.BufferTotalNJ += v
	}
	e.TotalNJ = e.RouterTotalNJ + e.LinkTotalNJ + e.BufferTotalNJ
	// EnergyNJ stays the historical static estimate — every active link
	// at full assigned-frequency power for the whole horizon — so the
	// activity-based Energy.TotalNJ can be compared against it.
	st.EnergyNJ = st.PowerMW * s.cfg.Horizon
}
