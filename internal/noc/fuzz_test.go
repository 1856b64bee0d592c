package noc

// FuzzSimVsReference holds the engine byte-identical to the container/heap
// reference (refsim_test.go) — Stats and the delivery sequence — on fuzzed
// instances: mesh, torus and circulant platforms, the discrete and
// continuous power models, low-rate flows whose injection period spans
// many calendar revolutions, random packet and flit sizes, horizons and
// finite buffers. The committed seed corpus in testdata/fuzz runs under
// plain go test.

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/topo/circulant"
	"repro/internal/topo/torus"
	"repro/internal/workload"
)

func FuzzSimVsReference(f *testing.F) {
	m := mesh.MustNew(8, 8)
	tor, err := torus.New(8, 8)
	if err != nil {
		f.Fatal(err)
	}
	circ, err := circulant.New(27, []int{1, 3, 9})
	if err != nil {
		f.Fatal(err)
	}
	platforms := []topo.Topology{m, tor, circ}
	f.Fuzz(func(t *testing.T, seed int64, platform, n uint8, lowRate, discrete, cutThrough bool,
		packetBits, flitBits, horizon uint16, buffers uint8) {
		tp := platforms[int(platform)%len(platforms)]
		wmin, wmax := 100.0, 1200.0
		if lowRate {
			// Periods of 100–2,000 µs: injections sit many revolutions
			// of the calendar ahead.
			wmin, wmax = 1, 20
		}
		set := workload.New(tp.Carrier(), seed).Uniform(1+int(n%20), wmin, wmax)
		r := route.Routing{Topo: tp, Flows: make([]route.Flow, 0, len(set))}
		for _, c := range set {
			r.Flows = append(r.Flows, route.Flow{Comm: c, Path: route.Path(tp.AppendRoute(nil, c.Src, c.Dst))})
		}
		model := power.KimHorowitzContinuous()
		if discrete {
			model = power.KimHorowitz()
		}
		cfg := Config{
			PacketBits:    float64(1 + int(packetBits)%4096),
			FlitBits:      float64(1 + int(flitBits)%512),
			Horizon:       float64(1 + int(horizon)%2000),
			BufferPackets: int(buffers % 4),
		}
		cfg.Warmup = cfg.Horizon / 5
		if cutThrough {
			cfg.Switching = CutThrough
		}
		runBoth(t, r, model, cfg, nil, fmt.Sprintf("%s/%+v", tp.Spec(), cfg))
	})
}
