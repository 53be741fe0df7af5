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
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"emx/internal/harness"
	"emx/internal/labd"
	"emx/internal/labd/service"
	"emx/internal/ring"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run parses flags, then serves until SIGINT/SIGTERM. It returns 2 for
// a bad flag, 1 when the listener fails and 0 after a clean shutdown.
func run(args []string, stderr io.Writer) int {
	addr, opts, ok := parseFlags(args, stderr)
	if !ok {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger := log.New(stderr, "", log.LstdFlags)
	srv := service.New(opts)
	logger.Printf("emxd: serving on %s (workers=%d queue=%d cache=%d scale=%d)",
		addr, srv.Scheduler().Stats().Workers, opts.Sched.QueueSize, opts.Sched.CacheSize, opts.Scale)
	return serve(ctx, addr, srv, logger)
}

// parseFlags turns emxd's flags into a listen address and server
// options. The -peers and -self URLs go through ring.ParseMembers, the
// parser emxcluster applies to -nodes, so this node's replica ring and
// the gateway's ring rank every key identically.
func parseFlags(args []string, stderr io.Writer) (string, service.Options, bool) {
	fs := flag.NewFlagSet("emxd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", ":8484", "listen address")
		workers = fs.Int("workers", 0, "simulator worker pool size (0 = GOMAXPROCS)")
		queue   = fs.Int("queue", 1024, "pending-run queue bound (full queue rejects with 503)")
		cache   = fs.Int("cache", 512, "LRU result cache bound in entries")
		scale   = fs.Int("scale", harness.DefaultScale, "default scale-down factor for requests that omit one")
		seed    = fs.Int64("seed", 1, "default input generator seed")

		replicas = fs.Int("replicas", 1, "run-cache replication factor across the peer set (1 = off)")
		selfStr  = fs.String("self", "", "this node's base URL as peers address it (required with -replicas > 1)")
		peersStr = fs.String("peers", "", "comma-separated peer base URLs, including -self (required with -replicas > 1)")
	)
	fail := func(msg string) (string, service.Options, bool) {
		fmt.Fprintln(stderr, "emxd: "+msg)
		return "", service.Options{}, false
	}
	if err := fs.Parse(args); err != nil {
		return "", service.Options{}, false
	}
	if *queue < 1 || *cache < 1 || *scale < 1 {
		return fail("-queue, -cache, and -scale must be >= 1")
	}
	if *workers < 0 {
		return fail("-workers must be >= 0")
	}
	peers := ring.ParseMembers(*peersStr)
	// A -self naming two URLs stays a list, which no peer equals.
	self := strings.Join(ring.ParseMembers(*selfStr), ",")
	if *replicas > 1 && (self == "" || len(peers) < 2) {
		return fail("-replicas > 1 needs -self and at least two -peers")
	}
	if self != "" && len(peers) > 0 && !slices.Contains(peers, self) {
		return fail(fmt.Sprintf("-self %s is not among -peers %s", self, *peersStr))
	}
	return *addr, service.Options{
		Scale: *scale,
		Seed:  *seed,
		Sched: labd.Options{Workers: *workers, QueueSize: *queue, CacheSize: *cache},
		Replication: service.ReplicationOptions{
			Replicas: *replicas,
			Self:     self,
			Peers:    peers,
		},
	}, true
}

// shutdownGrace bounds how long serve waits for HTTP requests in
// flight once its context ends.
const shutdownGrace = 10 * time.Second

// serve runs srv's API on addr until ctx ends, then shuts the HTTP
// server down, waiting at most shutdownGrace for requests in flight. It
// does not close srv: simulations still running or queued are abandoned
// with the process, which loses nothing, because results are
// deterministic and every cache lives in memory.
func serve(ctx context.Context, addr string, srv *service.Server, logger *log.Logger) int {
	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errc:
		logger.Printf("emxd: %v", err)
		return 1
	case <-ctx.Done():
		logger.Print("emxd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Printf("emxd: shutdown: %v", err)
		}
	}
	return 0
}
