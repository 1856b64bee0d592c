// Command routed serves the routing engine over HTTP: single solves on a
// sharded pool of workers with persistent pooled scratch, and declarative
// scenario sweeps streamed back as JSON lines with content-hash caching
// and singleflight collapsing of identical submissions (see
// internal/serve for the endpoint contracts).
//
// Usage:
//
//	routed -addr :8077
//	routed -addr :8077 -shards 8 -max-sweeps 4 -cache 128 -max-trials 1000
//	routed -addr :8077 -solve-timeout 10s -sweep-timeout 5m
//	routed -addr :8077 -pprof localhost:6060
//
// SIGINT/SIGTERM trigger a graceful stop: /readyz flips unready so load
// balancers stop routing new traffic, the listener closes, in-flight
// solves and sweep streams run to completion (bounded by -grace), queued
// solve jobs are drained, and the final stats counters are logged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8077", "listen address")
		shards    = flag.Int("shards", 0, "solve worker shards, each with persistent pooled scratch (0 = all cores)")
		queue     = flag.Int("queue", 0, "per-shard pending-solve bound before 503 backpressure (0 = 64)")
		sweepW    = flag.Int("sweep-workers", 0, "pooled workers per sweep run (0 = all cores)")
		maxSweeps = flag.Int("max-sweeps", 0, "concurrently executing sweeps (0 = 2)")
		cacheN    = flag.Int("cache", 0, "completed sweeps kept in the LRU cache (0 = 64)")
		maxTrials = flag.Int("max-trials", 0, "reject sweep specs above this trials/point (0 = unlimited)")
		solveTO   = flag.Duration("solve-timeout", 0, "per-request /solve deadline; expiry answers 504 and aborts the solve mid-search (0 = none)")
		sweepTO   = flag.Duration("sweep-timeout", 0, "per-run sweep deadline; expiry ends the stream with a terminal error record (0 = none)")
		grace     = flag.Duration("grace", 5*time.Minute, "graceful-shutdown bound for in-flight requests (0 = wait forever)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled); keep it loopback-only")
	)
	flag.Parse()
	if *pprofAddr != "" {
		// The pprof handlers live on the DefaultServeMux, never on the
		// service handler — profiling stays off the public listener.
		go func() {
			log.Printf("routed: pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("routed: pprof server: %v", err)
			}
		}()
	}
	cfg := serve.Config{
		SolveShards:  *shards,
		ShardQueue:   *queue,
		SweepWorkers: *sweepW,
		MaxSweeps:    *maxSweeps,
		CacheEntries: *cacheN,
		MaxTrials:    *maxTrials,
		SolveTimeout: *solveTO,
		SweepTimeout: *sweepTO,
	}
	if err := run(*addr, cfg, *grace); err != nil {
		fmt.Fprintln(os.Stderr, "routed:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg serve.Config, grace time.Duration) error {
	srv := serve.New(cfg)
	hs := &http.Server{Addr: addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() {
		log.Printf("routed: listening on %s", addr)
		errc <- hs.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		srv.Close()
		return err
	case s := <-sig:
		// Unready first: a load balancer probing /readyz pulls this
		// instance from rotation while the listener finishes in-flight
		// work below.
		srv.BeginDrain()
		log.Printf("routed: %v, draining", s)
	}

	ctx := context.Background()
	if grace > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, grace)
		defer cancel()
	}
	// Shutdown returns once every in-flight handler — including sweep
	// streams — has completed; Close then drains the queued solve jobs.
	shutdownErr := hs.Shutdown(ctx)
	srv.Close()
	st := srv.Stats()
	log.Printf("routed: drained (solves=%d rejects=%d sweeps=%d hits=%d misses=%d attaches=%d panics=%d canceled=%d timeouts=%d)",
		st.Solves, st.SolveRejects, st.SweepsRun, st.CacheHits, st.CacheMisses, st.CacheAttaches,
		st.Panics, st.Canceled, st.Timeouts)
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	return nil
}
