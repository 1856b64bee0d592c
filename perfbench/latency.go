package main

import (
	"math"
	"math/rand/v2"
	"net/http"
	"time"
)

// latencyMS is a shot's latency from its due time, in ms; a dropped or
// failed shot misses every limit.
func latencyMS(sh Shot, o Outcome) float64 {
	if o.Dropped || o.Err != nil || o.Status != http.StatusOK {
		return math.Inf(1)
	}
	return float64(o.Done-sh.Due) / 1e6
}

// passLatencies returns the latencies (ms) of the sent, successful shots
// in [lo, hi), in due order.
func passLatencies(shots []Shot, outs []Outcome, lo, hi int) []float64 {
	var lat []float64
	for i := lo; i < hi; i++ {
		if l := latencyMS(shots[i], outs[i]); !math.IsInf(l, 1) {
			lat = append(lat, l)
		}
	}
	return lat
}

// lastDone is when the last answer of a pass arrived.
func lastDone(outs []Outcome) time.Duration {
	var t time.Duration
	for _, o := range outs {
		t = max(t, o.Done)
	}
	return t
}

// traceRequests records, for every sent shot of a traced pass, a root
// "request" span from its due time to its answer, split into the
// generator's wait and the HTTP round trip.
func traceRequests(tr *Tracer, start time.Time, shots []Shot, outs []Outcome) {
	for i, out := range outs {
		if out.Dropped {
			continue
		}
		root := tr.Add("request", -1, i, start, shots[i].Due, out.Done)
		tr.Add("loadgen.wait", root, i, start, shots[i].Due, out.Sent)
		tr.Add("http", root, i, start, out.Sent, out.Done)
	}
}

// passMetrics sets what a traced open-loop run takes from its two passes
// of the same shots: the untraced pass's tail and send lag, and the
// change in p50 that tracing made. It returns both passes' p50s.
func passMetrics(m map[string]float64, shots []Shot, plain, traced []Outcome) (plainP50, tracedP50 float64) {
	var lag []float64
	for i, o := range plain {
		if !o.Dropped {
			lag = append(lag, float64(o.Sent-shots[i].Due)/1e6)
		}
	}
	plainLat := passLatencies(shots, plain, 0, len(shots))
	plainP50 = percentile(plainLat, 50)
	tracedP50 = percentile(passLatencies(shots, traced, 0, len(shots)), 50)
	m["p99_ms"], _ = tailMS(plainLat)
	m["loadgen.lag_p99_ms"] = percentile(lag, 99)
	m["loadgen.sent"] = float64(len(lag))
	m["trace.overhead_ratio"] = tracedP50/plainP50 - 1
	return plainP50, tracedP50
}

// tailWindow is the smallest sample a p99 is taken over: one with ten
// samples beyond the percentile.
const tailWindow = 1000

// tailMS is the tail latency reported as p99_ms, and the percentile it
// stands for. Latencies in due order are cut into consecutive windows of
// at least tailWindow samples; the tail is the median of the windows'
// p99s, so one stall of the shared host moves one window rather than the
// metric. A sample too small for one window gives its highest percentile
// with ten samples beyond it.
func tailMS(lat []float64) (ms, pct float64) {
	k := len(lat) / tailWindow
	if k < 1 {
		p := tailPercentile(len(lat))
		return percentile(lat, p), p
	}
	size := len(lat) / k
	p99s := make([]float64, k)
	for w := range p99s {
		p99s[w] = percentile(lat[w*size:(w+1)*size], 99)
	}
	return percentile(p99s, 50), 99
}

// rungResult is one open-loop rate's outcome.
type rungResult struct {
	Offered  float64 `json:"offered_rps"`
	Achieved float64 `json:"achieved_rps"`
	Samples  int     `json:"samples"`
	Dropped  int     `json:"dropped"`
	P50MS    float64 `json:"p50_ms"`
	TailMS   float64 `json:"p99_ms"`
	EndLagMS float64 `json:"end_lag_ms"`
	Meets    bool    `json:"meets_limit"`
}

// evalRung measures the shots[lo:hi] offered at one rate. The rung meets
// the limit when its tail latency does, counting every dropped or failed
// request as a miss, and its backlog is not growing: the send lag of its
// last tenth of requests stays under the limit too.
func evalRung(shots []Shot, outs []Outcome, lo, hi int, offered float64, limit time.Duration) rungResult {
	res := rungResult{Offered: offered, Samples: hi - lo}
	var lat, endLag []float64
	var lastDone time.Duration
	for i := lo; i < hi; i++ {
		lat = append(lat, latencyMS(shots[i], outs[i]))
		if outs[i].Dropped {
			res.Dropped++
		} else {
			lastDone = max(lastDone, outs[i].Done)
		}
		if i >= hi-(hi-lo)/10 {
			endLag = append(endLag, float64(outs[i].Sent-shots[i].Due)/1e6)
		}
	}
	res.P50MS = percentile(lat, 50)
	res.TailMS, _ = tailMS(lat)
	res.EndLagMS = percentile(endLag, 50)
	limitMS := float64(limit) / 1e6
	res.Meets = res.TailMS <= limitMS && res.EndLagMS <= limitMS
	if span := lastDone - shots[lo].Due; span > 0 {
		res.Achieved = float64(hi-lo-res.Dropped) / span.Seconds()
	}
	for _, v := range []*float64{&res.P50MS, &res.TailMS} {
		if math.IsInf(*v, 1) {
			*v = -1 // JSON has no infinity; -1 marks a figure made of misses
		}
	}
	return res
}

// maxRate is the achieved rate of the highest rung meeting the limit.
// When none does, it is the lowest rung's achieved rate scaled by how far
// its tail overshoots the limit, so the metric degrades smoothly instead
// of dropping to zero.
func maxRate(rungs []rungResult, limit time.Duration) float64 {
	for k := len(rungs) - 1; k >= 0; k-- {
		if rungs[k].Meets {
			return rungs[k].Achieved
		}
	}
	r := rungs[0]
	if r.TailMS <= 0 {
		return r.Achieved / 100
	}
	return r.Achieved * math.Min(1, float64(limit)/1e6/r.TailMS)
}

// deck deals pool indices in shuffled rounds, every entry once a round,
// so each run sends the same mix of requests and only their order
// depends on the seed.
type deck struct {
	rng   *rand.Rand
	n     int
	cards []int
}

func newDeck(rng *rand.Rand, n int) *deck { return &deck{rng: rng, n: n} }

func (d *deck) next() int {
	if len(d.cards) == 0 {
		d.cards = d.rng.Perm(d.n)
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}
