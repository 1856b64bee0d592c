package noc

// The reference engine's delivery accounting: Stats built up front with a
// PerComm entry per communication, and a map read-modify-write per
// delivered packet. The production engine accumulates into a dense
// per-communication slice and builds PerComm at finalize instead; the
// differential tests hold the two byte-identical.

import "repro/internal/route"

func newStats(r route.Routing, cfg Config) *Stats {
	space := r.Topo.LinkIDSpace()
	st := &Stats{
		Horizon:         cfg.Horizon,
		Warmup:          cfg.Warmup,
		PerComm:         make(map[int]CommStats),
		LinkUtilization: make([]float64, space),
		LinkFreq:        make([]float64, space),
	}
	for _, fl := range r.Flows {
		cs := st.PerComm[fl.Comm.ID]
		cs.RequestedRate += fl.Comm.Rate
		st.PerComm[fl.Comm.ID] = cs
	}
	return st
}

func (st *Stats) deliver(commID int, injected, bits, now float64) {
	st.Delivered++
	if injected < st.Warmup {
		return
	}
	cs := st.PerComm[commID]
	cs.DeliveredBits += bits
	cs.Packets++
	lat := now - injected
	cs.TotalLatency += lat
	if lat > cs.MaxLatency {
		cs.MaxLatency = lat
	}
	st.PerComm[commID] = cs
}
