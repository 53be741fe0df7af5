// Command emxd serves the reproduction's experiments over HTTP: an
// experiment daemon with content-addressed run caching, in-flight
// request coalescing, and a bounded simulator worker pool (see
// internal/labd). Identical experiment requests — from any number of
// clients — execute at most once and are then served from cache.
//
// Usage:
//
//	emxd                          # serve on :8484 with defaults
//	emxd -addr :9000 -workers 8 -queue 2048 -cache 1024
//
// Endpoints:
//
//	POST /v1/run     one simulation point
//	POST /v1/figure  one figure panel (6a-9d, ablations, ...)
//	POST /v1/profile one point with the emxprof tracer attached
//	GET  /v1/status  scheduler/cache state
//	GET  /metrics    Prometheus text counters
//
// Point emxbench at a running daemon with -remote http://host:8484.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"emx/internal/harness"
	"emx/internal/labd"
	"emx/internal/labd/service"
)

func main() {
	var (
		addr    = flag.String("addr", ":8484", "listen address")
		workers = flag.Int("workers", 0, "simulator worker pool size (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 1024, "pending-run queue bound (full queue rejects with 503)")
		cache   = flag.Int("cache", 512, "LRU result cache bound in entries")
		scale   = flag.Int("scale", harness.DefaultScale, "default scale-down factor for requests that omit one")
		seed    = flag.Int64("seed", 1, "default input generator seed")

		replicas = flag.Int("replicas", 1, "run-cache replication factor across the peer set (1 = off)")
		self     = flag.String("self", "", "this node's base URL as peers address it (required with -replicas > 1)")
		peersStr = flag.String("peers", "", "comma-separated peer base URLs, including -self (required with -replicas > 1)")
	)
	flag.Parse()
	if *queue < 1 || *cache < 1 || *scale < 1 {
		fmt.Fprintln(os.Stderr, "emxd: -queue, -cache, and -scale must be >= 1")
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "emxd: -workers must be >= 0")
		os.Exit(2)
	}
	var peers []string
	if *peersStr != "" {
		peers = strings.Split(*peersStr, ",")
	}
	if *replicas > 1 && (*self == "" || len(peers) < 2) {
		fmt.Fprintln(os.Stderr, "emxd: -replicas > 1 needs -self and at least two -peers")
		os.Exit(2)
	}

	srv := service.New(service.Options{
		Scale: *scale,
		Seed:  *seed,
		Sched: labd.Options{Workers: *workers, QueueSize: *queue, CacheSize: *cache},
		Replication: service.ReplicationOptions{
			Replicas: *replicas,
			Self:     *self,
			Peers:    peers,
		},
	})
	defer srv.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("emxd: serving on %s (workers=%d queue=%d cache=%d scale=%d)",
		*addr, srv.Scheduler().Stats().Workers, *queue, *cache, *scale)

	select {
	case err := <-errc:
		log.Fatalf("emxd: %v", err)
	case <-ctx.Done():
		log.Print("emxd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("emxd: shutdown: %v", err)
		}
	}
}
