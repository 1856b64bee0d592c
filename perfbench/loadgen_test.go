package main

import (
	"bytes"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// connCounter is a stub server's connection ledger.
type connCounter struct {
	mu             sync.Mutex
	open, max, all int
}

func (c *connCounter) track(_ net.Conn, s http.ConnState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch s {
	case http.StateNew:
		c.open++
		c.all++
		c.max = max(c.max, c.open)
	case http.StateClosed, http.StateHijacked:
		c.open--
	}
}

// stubServer answers every request with its body after delay(n), n
// counting requests from 0.
func stubServer(t *testing.T, delay func(n int64) time.Duration) (*httptest.Server, *connCounter) {
	var n atomic.Int64
	conns := &connCounter{}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay(n.Add(1) - 1))
		_, _ = io.Copy(w, r.Body)
	}))
	srv.Config.ConnState = conns.track
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, conns
}

func TestGeneratorChargesStallToQueuedRequests(t *testing.T) {
	const (
		stalled = 5
		stall   = 60 * time.Millisecond
		rate    = 1000.0
	)
	srv, _ := stubServer(t, func(n int64) time.Duration {
		if n == stalled {
			return stall
		}
		return 0
	})
	// One connection: every request due during the stall queues behind it.
	g := &Generator{Client: NewClient(1), Base: srv.URL, Conns: 1,
		Pool: []Request{{Method: http.MethodPost, Path: "/", Body: []byte("x")}}}
	defer g.Client.CloseIdleConnections()
	shots := evenShots(nil, 0, rate, 40, func() int { return 0 })
	outs, _, err := g.Run(shots)
	if err != nil {
		t.Fatal(err)
	}
	stallEnd := outs[stalled].Done
	if got := stallEnd - outs[stalled].Sent; got < stall {
		t.Fatalf("stalled request took %v, want at least %v", got, stall)
	}
	for i := stalled + 1; i < len(shots) && shots[i].Due < stallEnd-5*time.Millisecond; i++ {
		lat := outs[i].Done - shots[i].Due
		if want := stallEnd - shots[i].Due; lat < want {
			t.Errorf("shot %d: latency %v from its due time misses the %v it waited behind the stall", i, lat, want)
		}
		if lag := outs[i].Sent - shots[i].Due; lag <= 0 {
			t.Errorf("shot %d: send lag %v, want the stall to make it late", i, lag)
		}
	}
	var lag []float64
	for i, o := range outs {
		lag = append(lag, float64(o.Sent-shots[i].Due)/1e6)
	}
	if p99 := percentile(lag, 99); p99 < float64(stall)/2e6 {
		t.Errorf("lag p99 %.2f ms does not report the stall", p99)
	}
	if lat := outs[0].Done - shots[0].Due; lat > stall/2 {
		t.Errorf("shot 0, before the stall, took %v", lat)
	}
}

func TestGeneratorConnectionsBounded(t *testing.T) {
	conns := runtime.NumCPU()
	srv, counter := stubServer(t, func(int64) time.Duration { return time.Millisecond })
	g := &Generator{Client: NewClient(conns), Base: srv.URL, Conns: conns,
		Pool: []Request{{Method: http.MethodPost, Path: "/", Body: []byte("x")}}}
	// Offered at several times what conns connections can carry, so
	// every worker is busy and the pool would grow if it could.
	shots := evenShots(nil, 0, 4000, 200, func() int { return 0 })
	outs, _, err := g.Run(shots)
	if err != nil {
		t.Fatal(err)
	}
	g.Client.CloseIdleConnections()
	for i, o := range outs {
		if o.Err != nil || o.Status != http.StatusOK {
			t.Fatalf("shot %d: %v (status %d)", i, o.Err, o.Status)
		}
	}
	counter.mu.Lock()
	defer counter.mu.Unlock()
	if counter.max > conns || counter.all > conns {
		t.Errorf("opened %d connections, %d at once; want at most %d", counter.all, counter.max, conns)
	}
}

func TestGeneratorDropsShotsPastMaxLag(t *testing.T) {
	srv, _ := stubServer(t, func(int64) time.Duration { return 20 * time.Millisecond })
	g := &Generator{Client: NewClient(1), Base: srv.URL, Conns: 1, MaxLag: 10 * time.Millisecond,
		Pool: []Request{{Method: http.MethodGet, Path: "/"}}}
	defer g.Client.CloseIdleConnections()
	outs, _, err := g.Run(evenShots(nil, 0, 1000, 10, func() int { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Dropped || !outs[len(outs)-1].Dropped {
		t.Errorf("dropped first %v, last %v; want the first sent and the last dropped", outs[0].Dropped, outs[len(outs)-1].Dropped)
	}
}

// TestSameSeedSameRequests pins that every workload's inputs follow from
// the seed alone.
func TestSameSeedSameRequests(t *testing.T) {
	bodies := func(seed int64) ([]Request, []Shot) {
		pool, err := solveLight.buildPool(seed, newSolvePipeline())
		if err != nil {
			t.Fatal(err)
		}
		shots, _ := solveLight.ladder(solveLight.rungs, time.Second,
			newDeck(rand.New(rand.NewPCG(uint64(seed), shotStream)), len(pool)).next)
		cp := &cachedPool{}
		cached, err := cachedShots(cp, seed, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return append(pool, cp.reqs...), append(shots, cached...)
	}
	pa, sa := bodies(7)
	pb, sb := bodies(7)
	pc, _ := bodies(8)
	if len(pa) != len(pb) || len(sa) != len(sb) {
		t.Fatalf("seed 7 gave %d/%d then %d/%d requests/shots", len(pa), len(sa), len(pb), len(sb))
	}
	for i := range pa {
		if !bytes.Equal(pa[i].Body, pb[i].Body) {
			t.Fatalf("request %d differs between two draws of seed 7", i)
		}
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("shot %d differs between two draws of seed 7: %+v vs %+v", i, sa[i], sb[i])
		}
	}
	if bytes.Equal(pa[0].Body, pc[0].Body) {
		t.Error("seeds 7 and 8 drew the same first request")
	}
}
