// Command emxcluster federates several emxd nodes behind one gateway
// speaking the same HTTP API. Requests are routed to their owning node
// by rendezvous hashing over the experiment's content identity, so the
// per-node result caches partition across the cluster instead of
// duplicating; node failures are absorbed by bounded retries against
// the next-ranked peers, then (with -local) in-process execution.
// Because every node computes byte-identical results for a given run
// identity, failover is invisible to clients.
//
// Usage:
//
//	emxcluster -nodes http://a:8484,http://b:8484,http://c:8484
//	emxcluster -addr :9000 -nodes ... -attempt-timeout 30s -local
//
// Endpoints (same shapes as emxd):
//
//	POST /v1/run     one simulation point, routed to its owner
//	POST /v1/figure  one figure panel, routed whole to one owner
//	POST /v1/profile one profiled point, routed with its run's owner
//	GET  /v1/status  cluster membership + routing counters
//	GET  /metrics    Prometheus text counters
//
// Point emxbench at the gateway — or directly at the node list — with
// -remote.
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
	"strings"
	"syscall"
	"time"

	"emx/internal/cluster"
	"emx/internal/harness"
	"emx/internal/labd/service"
	"emx/internal/ring"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, func(addr string, h http.Handler, g *cluster.Gateway, m *cluster.Membership) int {
		return serve(addr, h, m)
	}))
}

// run parses flags and hands the assembled gateway to start (the real
// main serves; tests substitute an in-process driver).
func run(args []string, stderr io.Writer, start func(addr string, h http.Handler, g *cluster.Gateway, m *cluster.Membership) int) int {
	fs := flag.NewFlagSet("emxcluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", ":8483", "listen address")
		nodes   = fs.String("nodes", "", "comma-separated base URLs of member emxd nodes (required)")
		probe   = fs.Duration("probe", 5*time.Second, "health-probe interval (0 disables background probing)")
		timeout = fs.Duration("attempt-timeout", 0, "per-attempt request timeout (0: none)")
		retries = fs.Int("retries", 2, "additional attempts after a failed first one")
		scale   = fs.Int("scale", harness.DefaultScale, "default scale-down factor; MUST match the nodes' -scale")
		seed    = fs.Int64("seed", 1, "default input seed; MUST match the nodes' -seed")
		local   = fs.Bool("local", false, "serve in-process when every node is unreachable")
		reps    = fs.Int("replicas", 1, "nodes' run-cache replication factor; failover tries that many ranked peers before recomputing")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: emxcluster -nodes http://a:8484,http://b:8484 [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	urls := ring.ParseMembers(*nodes)
	if len(urls) == 0 {
		fmt.Fprintln(stderr, "emxcluster: -nodes is required (comma-separated emxd base URLs)")
		fs.Usage()
		return 2
	}
	for _, u := range urls {
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			fmt.Fprintf(stderr, "emxcluster: node %q: want an http:// or https:// base URL\n", u)
			return 2
		}
	}
	if *retries < 0 {
		fmt.Fprintf(stderr, "emxcluster: -retries must be >= 0, got %d\n", *retries)
		return 2
	}
	if *scale < 1 {
		fmt.Fprintf(stderr, "emxcluster: -scale must be >= 1, got %d\n", *scale)
		return 2
	}
	if *probe < 0 || *timeout < 0 {
		fmt.Fprintln(stderr, "emxcluster: durations must be >= 0")
		return 2
	}
	if *reps < 1 {
		fmt.Fprintf(stderr, "emxcluster: -replicas must be >= 1, got %d\n", *reps)
		return 2
	}

	m := cluster.NewMembership(urls, cluster.MembershipOptions{ProbeInterval: *probe})
	copts := cluster.ClientOptions{
		AttemptTimeout: *timeout,
		Retries:        *retries,
		Replicas:       *reps,
	}
	if *retries == 0 {
		copts.Retries = -1 // ClientOptions uses -1 for explicit zero
	}
	var localSrv *service.Server
	if *local {
		localSrv = service.New(service.Options{Scale: *scale, Seed: *seed})
		defer localSrv.Close()
		copts.Local = localSrv.Handler()
	}
	g := cluster.NewGateway(m, cluster.GatewayOptions{
		Scale:  *scale,
		Seed:   *seed,
		Client: copts,
	})
	m.ProbeAll()
	m.Start()
	defer m.Close()

	return start(*addr, g.Handler(), g, m)
}

// serve runs the HTTP server until SIGINT/SIGTERM.
func serve(addr string, h http.Handler, m *cluster.Membership) int {
	httpSrv := &http.Server{Addr: addr, Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("emxcluster: serving on %s (%d member nodes, %d healthy)",
		addr, len(m.Members()), len(m.Healthy()))

	select {
	case err := <-errc:
		log.Printf("emxcluster: %v", err)
		return 1
	case <-ctx.Done():
		log.Print("emxcluster: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("emxcluster: shutdown: %v", err)
		}
	}
	return 0
}
