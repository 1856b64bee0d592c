package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/serve"
)

// harness is one routed server on a loopback port, in this process, and
// the client the benchmark drives it with.
type harness struct {
	srv    *serve.Server
	http   *http.Server
	base   string
	client *http.Client
	served chan error
}

// startServer serves a fresh serve.New(cfg) on 127.0.0.1 and returns
// once the listener accepts connections.
func startServer(cfg serve.Config, conns int) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	srv := serve.New(cfg)
	h := &harness{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: NewClient(conns),
		served: make(chan error, 1),
	}
	go func() { h.served <- h.http.Serve(ln) }()
	return h, nil
}

// close shuts the listener down gracefully, drains the server and waits
// for the serving goroutine to exit.
func (h *harness) close() error {
	err := h.http.Shutdown(context.Background())
	h.srv.Close()
	h.client.CloseIdleConnections()
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// warmUp sends the first n pool requests, which must all succeed: it
// fills pooled scratch and opens the client's connections.
func (h *harness) warmUp(pool []Request, n, conns int) error {
	g := &Generator{Client: h.client, Base: h.base, Conns: conns, Pool: pool}
	shots := make([]Shot, n)
	for i := range shots {
		shots[i].Req = i
	}
	outs, _, err := g.Run(shots)
	if err != nil {
		return err
	}
	for i, out := range outs {
		if out.Err != nil || out.Status != http.StatusOK {
			return fmt.Errorf("warm-up %s %s failed: %v (status %d)", pool[i].Method, pool[i].Path, out.Err, out.Status)
		}
	}
	return nil
}

// stats reads GET /stats.
func (h *harness) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := h.client.Get(h.base + "/stats")
	if err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode /stats: %w", err)
	}
	return st, nil
}

// loopbackUS is the median round trip of n serial GET /healthz requests:
// the bare cost of the HTTP stack and loopback, with no work behind it.
func (h *harness) loopbackUS(n int) (float64, error) {
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := h.client.Get(h.base + "/healthz")
		if err != nil {
			return 0, fmt.Errorf("GET /healthz: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("read /healthz: %w", err)
		}
		lat = append(lat, float64(time.Since(t0))/1e3)
	}
	return percentile(lat, 50), nil
}

// statsDelta is after − before for the counters the per-layer metrics
// report.
func statsDelta(before, after serve.Stats) serve.Stats {
	return serve.Stats{
		SolveRejects:   after.SolveRejects - before.SolveRejects,
		SweepsRun:      after.SweepsRun - before.SweepsRun,
		CacheHits:      after.CacheHits - before.CacheHits,
		CacheMisses:    after.CacheMisses - before.CacheMisses,
		CacheAttaches:  after.CacheAttaches - before.CacheAttaches,
		CacheEvictions: after.CacheEvictions - before.CacheEvictions,
		Canceled:       after.Canceled - before.Canceled,
		Timeouts:       after.Timeouts - before.Timeouts,
	}
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 5

// timedSetups runs setup setupRepeats times, tearing down all but the
// last, and returns the last result with the median set-up time.
func timedSetups[T any](setup func() (T, error), teardown func(T) error) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			if err := teardown(v); err != nil {
				return last, 0, err
			}
			continue
		}
		last = v
	}
	return last, percentile(times, 50), nil
}

// heapSampler records the peak of the live-and-unswept heap (the
// runtime's heap object bytes) while a pass runs, without stopping the
// world.
type heapSampler struct {
	stop chan struct{}
	done chan float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func sampleHeap() *heapSampler {
	hs := &heapSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: heapMetric}}
		peak := uint64(0)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-hs.stop:
				hs.done <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return hs
}

// peakMiB stops the sampler and returns the peak in MiB.
func (hs *heapSampler) peakMiB() float64 {
	close(hs.stop)
	return <-hs.done
}

// percentile is the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentile is the highest percentile, at most 99, that leaves at
// least ten samples above it in a sample of n.
func tailPercentile(n int) float64 {
	if n <= 10 {
		return 0
	}
	p := 100 * (1 - 10/float64(n))
	return math.Min(99, math.Floor(p*10)/10)
}
