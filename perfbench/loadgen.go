package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"net/http"
	"sync"
	"time"
)

// Request is one HTTP request of a workload's pool. Bodies are generated
// and marshalled before the timed pass, so the generator only sends bytes.
type Request struct {
	Method string
	Path   string
	Body   []byte
}

// Shot is one scheduled request: the pool entry to send and the offset
// from the start of the pass at which it is due.
type Shot struct {
	Due time.Duration
	Req int
}

// Outcome is what one shot produced. Sent and Done are offsets from the
// start of the pass, like Shot.Due. A shot that was still unsent MaxLag
// after its due time is Dropped and never reaches the server. The body
// is kept as its sum only: holding every answer would grow the heap the
// collector scans under the server being measured.
type Outcome struct {
	Sent, Done time.Duration
	Status     int
	Cache      string // the X-Routed-Cache header: "hit", "miss", "attach" or ""
	Sum        uint64 // bodySum of the answer
	Body       []byte // the answer itself, kept only when Status is not 200
	Err        error
	Dropped    bool
}

var bodySeed = maphash.MakeSeed()

// bodySum identifies an answer's bytes within one run.
func bodySum(b []byte) uint64 { return maphash.Bytes(bodySeed, b) }

// Generator is an open-loop load generator: shots are sent at their due
// times whether or not earlier ones have been answered, over at most
// Conns concurrent requests (one keep-alive connection each). Latency is
// timed from the due time, so a stall is charged to every request queued
// behind it, and the send lag (Sent − Due) shows how late the generator
// ran.
type Generator struct {
	Client *http.Client
	Base   string
	Conns  int
	Pool   []Request
	// MaxLag drops shots that could not be sent within this long of their
	// due time (0 = never drop). It bounds the run time of a rung offered
	// above capacity, where the backlog grows without bound.
	MaxLag time.Duration
}

// NewClient returns an HTTP client that never opens more than conns
// connections to a host.
func NewClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// Run sends every shot and returns their outcomes, index-aligned with
// shots, and the instant the offsets count from. Shots must be sorted by
// due time.
func (g *Generator) Run(shots []Shot) ([]Outcome, time.Time, error) {
	p, err := newPacer()
	if err != nil {
		return nil, time.Time{}, err
	}
	defer p.close()
	out := make([]Outcome, len(shots))
	// Sized to the number of sends, so the pacer never waits for a busy
	// worker: shots due while every connection is busy queue here, as
	// they would in front of a real server.
	due := make(chan int, len(shots))
	start := time.Now()
	var pacerErr error
	go func() {
		defer close(due)
		for i, sh := range shots {
			if pacerErr = p.sleepUntil(start.Add(sh.Due)); pacerErr != nil {
				return
			}
			due <- i
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < g.Conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range due {
				if now := time.Since(start); g.MaxLag > 0 && now-shots[i].Due > g.MaxLag {
					out[i] = Outcome{Sent: now, Done: now, Dropped: true}
					continue
				}
				out[i] = g.send(start, g.Pool[shots[i].Req], &buf)
			}
		}()
	}
	wg.Wait() // the workers drain due, so the pacer has returned too
	if pacerErr != nil {
		return nil, start, fmt.Errorf("pace shots: %w", pacerErr)
	}
	return out, start, nil
}

// send makes one request, reading the answer into buf.
func (g *Generator) send(start time.Time, r Request, buf *bytes.Buffer) Outcome {
	var o Outcome
	buf.Reset()
	req, err := http.NewRequest(r.Method, g.Base+r.Path, bytes.NewReader(r.Body))
	o.Sent = time.Since(start)
	if err == nil {
		var resp *http.Response
		if resp, err = g.Client.Do(req); err == nil {
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			o.Status = resp.StatusCode
			o.Cache = cacheState(resp.Header.Get("X-Routed-Cache"))
		}
	}
	o.Done = time.Since(start)
	o.Err = err
	o.Sum = bodySum(buf.Bytes())
	if o.Status != http.StatusOK {
		o.Body = bytes.Clone(buf.Bytes())
	}
	return o
}

// cacheState returns the constant spelling of a cache header value, so
// an outcome does not keep its response's header memory alive.
func cacheState(v string) string {
	for _, c := range [...]string{"hit", "miss", "attach"} {
		if v == c {
			return c
		}
	}
	return ""
}

// evenShots schedules count shots at a fixed rate (req/s) starting at
// offset from, each drawing its pool entry from pick.
func evenShots(dst []Shot, from time.Duration, rate float64, count int, pick func() int) []Shot {
	for j := 0; j < count; j++ {
		due := from + time.Duration(float64(j)/rate*float64(time.Second))
		dst = append(dst, Shot{Due: due, Req: pick()})
	}
	return dst
}
