// Command emxload is a deterministic load generator for the
// emxd/emxcluster serving path. It synthesizes a seeded mix of
// /v1/run, /v1/figure, and /v1/profile requests, drives them at an
// in-process lab cluster (default) or external nodes, and reports
// per-endpoint SLOs, failover behaviour, and a byte-deterministic
// traffic digest. An optional chaos schedule kills, delays, and
// restarts lab nodes mid-run to exercise failover under load.
//
// Usage:
//
//	emxload -seed 42                              # closed loop, 3-node lab
//	emxload -mode open -rate 80 -requests 200     # open loop at 80 req/s
//	emxload -mode ramp -ramp-start 20 -ramp-steps 5
//	emxload -chaos "kill:1@10,restart:1@40" -format json
//	emxload -nodes http://a:8484,http://b:8484    # external cluster
//
// Reports are reproducible: the same seed produces the same request
// multiset and (when every request succeeds) a byte-identical report
// outside the single "host" key, which gathers everything
// timing-dependent.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"emx/internal/cluster"
	"emx/internal/labd"
	"emx/internal/labd/service"
	"emx/internal/load"
	"emx/internal/ring"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emxload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "traffic seed: same seed, same request multiset")
		mode     = fs.String("mode", "closed", "workload model: closed, open, or ramp")
		requests = fs.Int("requests", 64, "request count (per ramp segment in ramp mode)")
		clients  = fs.Int("clients", 4, "closed-loop concurrent clients")
		rate     = fs.Float64("rate", 50, "open-loop offered load (req/s)")
		deadline = fs.Duration("deadline", 0, "per-request deadline propagated to the serving path (0: none)")
		mixStr   = fs.String("mix", load.DefaultMix.String(), "endpoint mix, e.g. run=8,figure=1,profile=1")
		local    = fs.Int("local", 3, "in-process lab node count (ignored with -nodes)")
		nodesStr = fs.String("nodes", "", "comma-separated external emxd base URLs (default: in-process lab)")
		scale    = fs.Int("scale", 1<<20, "simulation scale stamped into every request")
		runSeed  = fs.Int64("run-seed", 1, "simulation input seed stamped into every request")
		chaosStr = fs.String("chaos", "", `fault schedule, e.g. "kill:1@10,restart:1@40" or "kill:owner@10" or JSON (lab only)`)
		replicas = fs.Int("replicas", 1, "cache replication factor across lab nodes (1: off; lab only)")
		format   = fs.String("format", "text", "report format: text or json")
		retries  = fs.Int("retries", 2, "failover retries per request (0: none)")
		quiet    = fs.Bool("quiet", false, "suppress progress lines")

		rampStart = fs.Float64("ramp-start", 10, "ramp mode: first offered rate (req/s)")
		rampStep  = fs.Float64("ramp-step", 10, "ramp mode: offered-rate increment per segment")
		rampSteps = fs.Int("ramp-steps", 4, "ramp mode: segment count")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *retries < 0 {
		fmt.Fprintf(stderr, "emxload: -retries must be >= 0, got %d\n", *retries)
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "emxload: unknown format %q (want text or json)\n", *format)
		return 2
	}
	mix, err := load.ParseMix(*mixStr)
	if err != nil {
		fmt.Fprintf(stderr, "emxload: %v\n", err)
		return 2
	}
	chaos, err := load.ParseSchedule(*chaosStr)
	if err != nil {
		fmt.Fprintf(stderr, "emxload: %v\n", err)
		return 2
	}

	// Resolve the target: an in-process lab unless -nodes names an
	// external cluster. Chaos needs the lab — faults are injected by
	// reaching into the nodes, which only works in-process.
	var lab *load.Lab
	var urls []string
	if *nodesStr != "" {
		if len(chaos) > 0 {
			fmt.Fprintln(stderr, "emxload: -chaos requires the in-process lab (drop -nodes)")
			return 2
		}
		if *replicas > 1 {
			fmt.Fprintln(stderr, "emxload: -replicas requires the in-process lab (drop -nodes)")
			return 2
		}
		if urls = ring.ParseMembers(*nodesStr); len(urls) == 0 {
			fmt.Fprintf(stderr, "emxload: -nodes %q names no node\n", *nodesStr)
			return 2
		}
	} else {
		lab, err = load.NewLab(*local, service.Options{
			Sched:       labd.Options{Workers: 2, QueueSize: 256},
			Replication: service.ReplicationOptions{Replicas: *replicas},
		})
		if err != nil {
			fmt.Fprintf(stderr, "emxload: %v\n", err)
			return 1
		}
		defer lab.Close()
		urls = lab.URLs()
	}

	members := cluster.NewMembership(urls, cluster.MembershipOptions{})
	defer members.Close()
	members.ProbeAll()
	copts := cluster.ClientOptions{
		Retries:  *retries,
		Replicas: *replicas,
	}
	if *retries == 0 {
		copts.Retries = -1 // ClientOptions uses -1 for explicit zero
	}
	client := cluster.NewClient(members, copts)

	logf := func(f string, a ...any) { fmt.Fprintf(stderr, "emxload: "+f+"\n", a...) }
	if *quiet {
		logf = nil
	}
	rep, err := load.Run(client, lab, load.Options{
		Mode:      *mode,
		Requests:  *requests,
		Clients:   *clients,
		Rate:      *rate,
		Deadline:  *deadline,
		Seed:      *seed,
		Space:     load.DefaultSpace(*scale, *runSeed),
		Mix:       mix,
		Chaos:     chaos,
		RampStart: *rampStart,
		RampStep:  *rampStep,
		RampSteps: *rampSteps,
		Logf:      logf,
		Probe:     func() { members.ProbeAll() },
	})
	if err != nil {
		fmt.Fprintf(stderr, "emxload: %v\n", err)
		return 1
	}
	if *format == "json" {
		err = rep.WriteJSON(stdout)
	} else {
		err = rep.WriteText(stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "emxload: writing report: %v\n", err)
		return 1
	}
	if rep.Traffic.Errors > 0 {
		return 1
	}
	return 0
}
