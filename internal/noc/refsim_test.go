package noc

// This file preserves the pre-arena, pointer-and-container/heap engine as a
// test-only reference implementation, with the horizon-accounting fixes
// (busy-time clamp, in-flight packets, injected/delivered counters) applied
// so the rebuilt production engine can be held byte-identical to it — same
// Stats, same delivery sequence — across the differential matrix in
// differential_test.go. Do not "modernize" this copy: its value is that it
// is the old control flow, allocation by allocation. Link ids and router
// coordinates go through Routing.Topo, so torus and circulant
// routings replay on it too (on a mesh routing that is the mesh itself).

import (
	"container/heap"
	"fmt"

	"repro/internal/power"
	"repro/internal/route"
)

// refPacket is one in-flight packet of the reference engine.
type refPacket struct {
	flow     int
	hop      int
	injected float64
	bits     float64
	prevDone float64
}

type refLinkState struct {
	freq        float64
	busy        bool
	busyTime    float64
	queues      [numClasses][]*refPacket
	reserved    [numClasses]int
	relayQueued [numClasses]int
	waiters     [numClasses][]int
}

func (ls *refLinkState) queuedPackets() int {
	n := 0
	for c := 0; c < numClasses; c++ {
		n += len(ls.queues[c])
	}
	return n
}

// refEvent mirrors the historical boxed event.
type refEvent struct {
	time float64
	seq  int64
	kind eventKind
	pkt  *refPacket
	flow int
	link int
}

// refEventQueue is the historical container/heap min-heap of *refEvent.
type refEventQueue struct {
	items []*refEvent
	seq   int64
}

func (q *refEventQueue) Len() int { return len(q.items) }

func (q *refEventQueue) Less(i, j int) bool {
	if q.items[i].time != q.items[j].time {
		return q.items[i].time < q.items[j].time
	}
	return q.items[i].seq < q.items[j].seq
}

func (q *refEventQueue) Swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }

func (q *refEventQueue) Push(x any) { q.items = append(q.items, x.(*refEvent)) }

func (q *refEventQueue) Pop() any {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	return it
}

func (q *refEventQueue) push(e *refEvent) {
	e.seq = q.seq
	q.seq++
	heap.Push(q, e)
}

func (q *refEventQueue) pop() *refEvent { return heap.Pop(q).(*refEvent) }

// refSimulator replays a routing exactly like the pre-arena engine did.
// Its energy accounting is an independent re-derivation (coordinate
// lookups per event instead of the production engine's precomputed
// linkSrc table and pooled slab), so the differential matrix pins the
// two implementations of the same arithmetic against each other.
type refSimulator struct {
	routing   route.Routing
	model     power.Model
	cfg       Config
	links     []refLinkState
	classes   [][]int
	onDeliver func(Delivery)
	routerE   []float64
	bufferE   []float64
}

func refNew(r route.Routing, model power.Model, cfg Config) (*refSimulator, error) {
	cfg.setDefaults()
	loads := r.Loads()
	links := make([]refLinkState, r.Topo.LinkIDSpace())
	for id, load := range loads {
		if load == 0 {
			continue
		}
		f, err := model.Quantize(load)
		if err != nil {
			return nil, fmt.Errorf("noc: link %v: %w", r.Topo.LinkByID(id), err)
		}
		links[id].freq = f
	}
	return &refSimulator{routing: r, model: model, cfg: cfg, links: links,
		routerE: make([]float64, r.Topo.NumCores()),
		bufferE: make([]float64, r.Topo.LinkIDSpace()),
	}, nil
}

func (s *refSimulator) assignClasses(classes [][]int) { s.classes = classes }

func (s *refSimulator) classOf(flow, hop int) int {
	if s.classes == nil {
		return 0
	}
	return s.classes[flow][hop]
}

func (s *refSimulator) run() *Stats {
	st := newStats(s.routing, s.cfg)
	q := &refEventQueue{}

	for i, fl := range s.routing.Flows {
		period := s.cfg.PacketBits / fl.Comm.Rate
		phase := period * float64(i%7) / 7.0
		q.push(&refEvent{time: phase, kind: evInject, flow: i})
	}

	for q.Len() > 0 {
		e := q.pop()
		if e.time > s.cfg.Horizon {
			// Horizon fix: a popped arrival past the horizon is a packet
			// mid-transmission, not a silently vanished one.
			if e.kind == evArrive {
				st.InFlight++
			}
			break
		}
		switch e.kind {
		case evInject:
			fl := s.routing.Flows[e.flow]
			st.Injected++
			pkt := &refPacket{flow: e.flow, injected: e.time, bits: s.cfg.PacketBits, prevDone: e.time}
			s.arrive(q, st, pkt, e.time)
			period := s.cfg.PacketBits / fl.Comm.Rate
			q.push(&refEvent{time: e.time + period, kind: evInject, flow: e.flow})
		case evArrive:
			s.arrive(q, st, e.pkt, e.time)
		case evLinkFree:
			s.links[e.link].busy = false
			s.startNext(q, e.link, e.time)
		}
	}
	// Horizon fix: everything still scheduled to arrive is in flight.
	for q.Len() > 0 {
		if e := q.pop(); e.kind == evArrive {
			st.InFlight++
		}
	}
	s.finalize(st)
	return st
}

func (s *refSimulator) arrive(q *refEventQueue, st *Stats, pkt *refPacket, now float64) {
	fl := s.routing.Flows[pkt.flow]
	if pkt.hop == len(fl.Path) {
		if s.onDeliver != nil {
			s.onDeliver(Delivery{CommID: fl.Comm.ID, Injected: pkt.injected, Time: now, Bits: pkt.bits})
		}
		st.deliver(fl.Comm.ID, pkt.injected, pkt.bits, now)
		return
	}
	id := s.routing.Topo.LinkID(fl.Path[pkt.hop])
	class := s.classOf(pkt.flow, pkt.hop)
	if pkt.hop > 0 {
		s.bufferE[id] += s.cfg.BufferPJPerBit * pkt.bits * 1e-3
		if s.cfg.BufferPackets > 0 {
			s.links[id].reserved[class]--
			s.links[id].relayQueued[class]++
		}
	}
	s.links[id].queues[class] = append(s.links[id].queues[class], pkt)
	s.startNext(q, id, now)
}

func (s *refSimulator) nextHopTarget(pkt *refPacket) (link, class int) {
	fl := s.routing.Flows[pkt.flow]
	if pkt.hop+1 >= len(fl.Path) {
		return -1, 0
	}
	return s.routing.Topo.LinkID(fl.Path[pkt.hop+1]), s.classOf(pkt.flow, pkt.hop+1)
}

func (s *refSimulator) hasRoom(id, class int) bool {
	if s.cfg.BufferPackets <= 0 || id < 0 {
		return true
	}
	return s.links[id].relayQueued[class]+s.links[id].reserved[class] < s.cfg.BufferPackets
}

func (s *refSimulator) startNext(q *refEventQueue, id int, now float64) {
	ls := &s.links[id]
	if ls.busy {
		return
	}
	var pkt *refPacket
	var class int
	for c := 0; c < numClasses; c++ {
		if len(ls.queues[c]) == 0 {
			continue
		}
		head := ls.queues[c][0]
		down, downClass := s.nextHopTarget(head)
		if !s.hasRoom(down, downClass) {
			s.links[down].waiters[downClass] = appendUnique(s.links[down].waiters[downClass], id)
			continue
		}
		pkt, class = head, c
		break
	}
	if pkt == nil {
		return
	}
	downstream, downClass := s.nextHopTarget(pkt)
	ls.queues[class] = ls.queues[class][1:]
	ls.busy = true
	if s.cfg.BufferPackets > 0 {
		if pkt.hop > 0 {
			ls.relayQueued[class]--
		}
		if downstream >= 0 {
			s.links[downstream].reserved[downClass]++
		}
		s.wakeWaiters(q, id, class, now)
	}
	src := s.routing.Topo.LinkByID(id).From
	s.routerE[s.routing.Topo.CoordIndex(src)] += s.cfg.RouterPJPerBit * pkt.bits * 1e-3
	tx := pkt.bits / ls.freq
	done := now + tx
	if s.cfg.Switching == CutThrough {
		if tail := pkt.prevDone + s.cfg.FlitBits/ls.freq; tail > done {
			done = tail
		}
	}
	// Horizon fix: busy time is only accrued inside the simulated window,
	// so a transmission completing past the horizon cannot push link
	// utilization above 1.0.
	end := done
	if end > s.cfg.Horizon {
		end = s.cfg.Horizon
	}
	ls.busyTime += end - now
	q.push(&refEvent{time: done, kind: evLinkFree, link: id})

	next := &refPacket{
		flow: pkt.flow, hop: pkt.hop + 1,
		injected: pkt.injected, bits: pkt.bits, prevDone: done,
	}
	arrival := done
	if s.cfg.Switching == CutThrough {
		if head := now + s.cfg.FlitBits/ls.freq; head < done {
			arrival = head
		}
		fl := s.routing.Flows[pkt.flow]
		if next.hop == len(fl.Path) {
			arrival = done
		}
	}
	q.push(&refEvent{time: arrival, kind: evArrive, pkt: next})
}

func (s *refSimulator) wakeWaiters(q *refEventQueue, id, class int, now float64) {
	ls := &s.links[id]
	if len(ls.waiters[class]) == 0 {
		return
	}
	waiters := ls.waiters[class]
	ls.waiters[class] = nil
	for _, w := range waiters {
		s.startNext(q, w, now)
	}
}

func (s *refSimulator) finalize(st *Stats) {
	e := &st.Energy
	e.RouterNJ = append([]float64(nil), s.routerE...)
	e.LinkNJ = make([]float64, len(s.links))
	e.BufferNJ = append([]float64(nil), s.bufferE...)
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
	st.EnergyNJ = st.PowerMW * s.cfg.Horizon
}
