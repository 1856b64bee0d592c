package noc

import (
	"fmt"
	"sort"
)

// CommStats aggregates per-communication delivery statistics.
type CommStats struct {
	// RequestedRate is Σ of the communication's flow rates (Mb/s).
	RequestedRate float64
	// DeliveredBits counts bits that reached the sink after warmup.
	DeliveredBits float64
	// Packets counts delivered packets after warmup.
	Packets int
	// TotalLatency accumulates injection→delivery times (µs).
	TotalLatency float64
	// MaxLatency is the worst packet latency observed (µs).
	MaxLatency float64
}

// record adds one post-warmup delivery of bits after latency lat (µs).
func (c *CommStats) record(bits, lat float64) {
	c.DeliveredBits += bits
	c.Packets++
	c.TotalLatency += lat
	if lat > c.MaxLatency {
		c.MaxLatency = lat
	}
}

// AvgLatency returns the mean packet latency in µs (0 with no packets).
func (c CommStats) AvgLatency() float64 {
	if c.Packets == 0 {
		return 0
	}
	return c.TotalLatency / float64(c.Packets)
}

// Energy is the per-component energy breakdown of a run, RACER-style:
// router datapath energy per core, link energy per link id (leakage over
// the whole horizon plus dynamic switching while busy), and input-buffer
// energy per link id, all in nJ. The three slices are carved from one
// slab and owned by the Stats. By construction
//
//	TotalNJ = RouterTotalNJ + LinkTotalNJ + BufferTotalNJ
//
// and each total is the exact sum of its per-component slice — the
// conservation identity the accounting tests pin. Compare TotalNJ with
// Stats.EnergyNJ (the static full-power estimate) to see how much the
// activity-based model recovers on lightly utilized links.
type Energy struct {
	// RouterNJ is indexed by core CoordIndex.
	RouterNJ []float64
	// LinkNJ and BufferNJ are indexed by link id.
	LinkNJ   []float64
	BufferNJ []float64

	RouterTotalNJ float64
	LinkTotalNJ   float64
	BufferTotalNJ float64
	// TotalNJ is the sum of the three component totals.
	TotalNJ float64
}

// Stats is the outcome of a simulation run.
type Stats struct {
	// Horizon and Warmup echo the configuration (µs).
	Horizon, Warmup float64
	// PerComm maps communication ID to its delivery statistics.
	PerComm map[int]CommStats
	// LinkUtilization is busy-time/horizon per link id (0 for idle).
	LinkUtilization []float64
	// LinkFreq is the assigned DVFS frequency per link id (Mb/s).
	LinkFreq []float64
	// PowerMW is the total link power at the assigned frequencies.
	PowerMW float64
	// EnergyNJ is PowerMW × Horizon — the static estimate that charges
	// every active link full power for the whole run, the paper's
	// figure of merit. Energy holds the activity-based breakdown.
	EnergyNJ float64
	// Energy is the per-component (router/link/buffer) breakdown.
	Energy Energy
	// ActiveLinks counts links carrying any traffic.
	ActiveLinks int
	// Injected counts packets injected before the horizon, warmup
	// included. Every injected packet is accounted for:
	// Injected = Delivered + Stalled + InFlight.
	Injected int
	// Delivered counts every delivered packet, warmup included (the
	// PerComm figures only count post-warmup deliveries).
	Delivered int
	// InFlight counts packets mid-transmission at the horizon — started
	// on a link but with their arrival scheduled past it. The historical
	// engine dropped these from the accounting entirely.
	InFlight int
	// Stalled counts packets still sitting in link queues at the
	// horizon. Small numbers are in-flight tails; persistent growth —
	// or any stall with nothing delivered — indicates backpressure
	// deadlock (finite buffers + cyclic channel dependencies).
	Stalled int
}

// DeliveredRate returns the post-warmup goodput of a communication in
// Mb/s.
func (st *Stats) DeliveredRate(commID int) float64 {
	window := st.Horizon - st.Warmup
	if window <= 0 {
		return 0
	}
	return st.PerComm[commID].DeliveredBits / window
}

// MeanUtilization returns the mean utilization over active links.
func (st *Stats) MeanUtilization() float64 {
	sum, n := 0.0, 0
	for id, u := range st.LinkUtilization {
		if st.LinkFreq[id] > 0 {
			sum += u
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Summary renders a short human-readable report: per-comm goodput versus
// request plus aggregate link figures, in communication-ID order.
func (st *Stats) Summary() string {
	ids := make([]int, 0, len(st.PerComm))
	for id := range st.PerComm {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := fmt.Sprintf("horizon %.0fµs, %d active links, power %.1f mW, energy %.0f nJ\n",
		st.Horizon, st.ActiveLinks, st.PowerMW, st.EnergyNJ)
	for _, id := range ids {
		cs := st.PerComm[id]
		out += fmt.Sprintf("  comm %3d: requested %7.1f Mb/s, delivered %7.1f Mb/s, avg latency %6.2f µs (max %6.2f)\n",
			id, cs.RequestedRate, st.DeliveredRate(id), cs.AvgLatency(), cs.MaxLatency)
	}
	return out
}
