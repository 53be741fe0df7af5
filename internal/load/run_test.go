package load

import (
	"bytes"
	"net/http"
	"runtime"
	"testing"
	"time"

	"emx/internal/cluster"
	"emx/internal/labd"
	"emx/internal/labd/service"
	"emx/internal/ring"
)

// hugeScale shrinks every panel to its minimum grid so lab-backed load
// runs stay fast.
const hugeScale = 1 << 20

func newLabTarget(t *testing.T, nodes int) (*Lab, *cluster.Client) {
	t.Helper()
	lab, err := NewLab(nodes, service.Options{
		Sched: labd.Options{Workers: 2, QueueSize: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lab.Close)
	m := cluster.NewMembership(lab.URLs(), cluster.MembershipOptions{})
	t.Cleanup(m.Close)
	return lab, cluster.NewClient(m, cluster.ClientOptions{})
}

// TestNewControllerRejectsLossySteps: callers hand Options.Chaos steps
// directly, so the controller refuses the steps the compact form cannot
// write (a node on an owner step, a duration on a kill) as ParseSchedule
// refuses their compact spellings.
func TestNewControllerRejectsLossySteps(t *testing.T) {
	lab, _ := newLabTarget(t, 1)
	for _, bad := range []Step{
		{Action: "kill", Node: 3, Owner: true, AtRequest: 1},
		{Action: "kill", AtRequest: 1, DelayMS: 7},
	} {
		if _, err := NewController(lab, []Step{bad}); err == nil {
			t.Errorf("NewController accepted %#v", bad)
		}
	}
	if _, err := NewController(lab, []Step{{Action: "kill", Owner: true, AtRequest: 7}}); err != nil {
		t.Errorf("owner step refused: %v", err)
	}
}

// TestSeedDeterminism is the tentpole acceptance check: the same seed
// must produce a byte-identical report outside the host block, no
// matter how many clients issue the traffic or how many OS threads the
// runtime schedules them on.
func TestSeedDeterminism(t *testing.T) {
	runOnce := func(procs, clients int) []byte {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		lab, client := newLabTarget(t, 3)
		rep, err := Run(client, lab, Options{
			Mode:     "closed",
			Requests: 30,
			Clients:  clients,
			Seed:     42,
			Space:    DefaultSpace(hugeScale, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Traffic.Errors != 0 {
			t.Fatalf("run with %d clients saw %d errors", clients, rep.Traffic.Errors)
		}
		if rep.Host == nil || rep.Host.SLO["/v1/run"].P50Seconds < 0 {
			t.Fatal("host SLO block missing")
		}
		// Config legitimately echoes the differing client counts; the
		// traffic block is the part that must not see concurrency.
		noHost := rep.WithoutHost()
		noHost.Config.Clients = 0
		var buf bytes.Buffer
		if err := noHost.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := runOnce(1, 1)
	parallel := runOnce(8, 8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("report depends on concurrency:\n--- GOMAXPROCS=1 clients=1 ---\n%s\n--- GOMAXPROCS=8 clients=8 ---\n%s",
			serial, parallel)
	}
}

// TestChaosKillFailover kills the node that owns a known mid-run
// request; the cluster client must absorb the loss (zero client-
// visible errors) and the failover counters must show it happened.
func TestChaosKillFailover(t *testing.T) {
	lab, client := newLabTarget(t, 3)
	gen, err := NewGenerator(42, DefaultSpace(hugeScale, 1), DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	// With one client, global issue order is index order, so request 10
	// is the 10th issued: killing its owner just before it is issued
	// guarantees at least one failover.
	owner := ring.New(lab.URLs()).Owner(gen.Request(10).Key)
	victim := -1
	for i, u := range lab.URLs() {
		if u == owner {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("owner %s not a lab node", owner)
	}
	rep, err := Run(client, lab, Options{
		Mode:     "closed",
		Requests: 25,
		Clients:  1,
		Seed:     42,
		Space:    DefaultSpace(hugeScale, 1),
		Chaos:    []Step{{Action: "kill", Node: victim, AtRequest: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Traffic.Errors != 0 {
		t.Fatalf("node kill leaked %d errors to the client", rep.Traffic.Errors)
	}
	if rep.Host.Client.Failovers == 0 {
		t.Fatal("owner died mid-run but no failover was counted")
	}
	if rep.Chaos == nil || rep.Chaos.Fired != 1 {
		t.Fatalf("chaos block wrong: %+v", rep.Chaos)
	}
}

// newReplicatedLabTarget is newLabTarget with R-way cache replication
// on the nodes and replica-aware failover on the client.
func newReplicatedLabTarget(t *testing.T, nodes, replicas int) (*Lab, *cluster.Client) {
	t.Helper()
	lab, err := NewLab(nodes, service.Options{
		Sched:       labd.Options{Workers: 2, QueueSize: 256},
		Replication: service.ReplicationOptions{Replicas: replicas},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lab.Close)
	m := cluster.NewMembership(lab.URLs(), cluster.MembershipOptions{})
	t.Cleanup(m.Close)
	return lab, cluster.NewClient(m, cluster.ClientOptions{Replicas: replicas})
}

// TestChaosOwnerKillReplicated is the replication acceptance test at
// the traffic level: with R=2, re-running fully cached traffic while
// killing the one node guaranteed to hold a point's primary copy must
// produce zero client-visible errors AND zero recomputations — every
// post-kill answer comes from a replica copy, not a fresh execution.
func TestChaosOwnerKillReplicated(t *testing.T) {
	lab, client := newReplicatedLabTarget(t, 3, 2)
	// No profiles: a failed-over profile re-renders its trace inline,
	// which is deliberate recomputation and would blur the zero-delta
	// assertion below.
	opts := Options{
		Mode:     "closed",
		Requests: 40,
		Clients:  1,
		Seed:     42,
		Space:    DefaultSpace(hugeScale, 1),
		Mix:      Mix{Run: 6, Figure: 2},
	}

	// Phase 1 populates every cache and pushes each entry to its second
	// ranked replica.
	warm, err := Run(client, lab, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Traffic.Errors != 0 {
		t.Fatalf("warmup saw %d errors", warm.Traffic.Errors)
	}
	if warm.Host.Replication == nil {
		t.Fatal("replicated lab report carries no replication block")
	}
	if warm.Host.Replication.Pushes == 0 || warm.Host.Replication.Stores == 0 {
		t.Fatalf("warmup replicated nothing: %+v", warm.Host.Replication)
	}
	if !lab.FlushReplication(5 * time.Second) {
		t.Fatal("replication queues did not drain")
	}
	executed := lab.RunsExecuted()
	if executed == 0 {
		t.Fatal("warmup executed nothing")
	}

	// Phase 2 re-issues the identical traffic while killing the owner of
	// a figure request just before it fires: the failover node must
	// serve the whole panel from replica copies (local pushes plus peer
	// fills), never the simulator.
	gen, err := NewGenerator(opts.Seed, opts.Space, opts.Mix)
	if err != nil {
		t.Fatal(err)
	}
	figAt := uint64(0)
	for i := uint64(2); i < uint64(opts.Requests); i++ {
		if gen.Request(i).Endpoint == "/v1/figure" {
			figAt = i
			break
		}
	}
	if figAt == 0 {
		t.Fatal("no figure request in the traffic; widen the mix")
	}
	opts.Chaos = []Step{{Action: "kill", Owner: true, AtRequest: figAt}}
	rep, err := Run(client, lab, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Traffic.Errors != 0 {
		t.Fatalf("owner kill leaked %d errors through R=2 replication", rep.Traffic.Errors)
	}
	if rep.Chaos == nil || rep.Chaos.Fired != 1 || len(rep.Chaos.Errors) != 0 {
		t.Fatalf("chaos block wrong: %+v", rep.Chaos)
	}
	if got := lab.RunsExecuted(); got != executed {
		t.Fatalf("owner kill recomputed %d previously cached points", got-executed)
	}
	if rep.Host.Replication.Fills == 0 {
		t.Fatalf("no peer fills despite a failed-over figure sweep: %+v", rep.Host.Replication)
	}

	// The text report surfaces the replication counters.
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(text.Bytes(), []byte("replication:")) {
		t.Fatalf("text report lacks the replication line:\n%s", text.String())
	}
}

// TestChaosDelayAndRestart exercises the remaining fault actions and
// the post-restart probe hook.
func TestChaosDelayAndRestart(t *testing.T) {
	lab, client := newLabTarget(t, 2)
	probed := 0
	rep, err := Run(client, lab, Options{
		Mode:     "closed",
		Requests: 16,
		Clients:  2,
		Seed:     3,
		Space:    DefaultSpace(hugeScale, 1),
		Chaos: []Step{
			{Action: "delay", Node: 0, AtRequest: 2, DelayMS: 5},
			{Action: "clear", Node: 0, AtRequest: 6},
			{Action: "kill", Node: 1, AtRequest: 8},
			{Action: "restart", Node: 1, AtRequest: 12},
		},
		Probe: func() { probed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Traffic.Errors != 0 {
		t.Fatalf("fault schedule leaked %d errors", rep.Traffic.Errors)
	}
	if rep.Chaos.Fired != 4 || len(rep.Chaos.Errors) != 0 {
		t.Fatalf("chaos block: %+v", rep.Chaos)
	}
	if probed != 1 {
		t.Fatalf("restart probe hook ran %d times, want 1", probed)
	}
}

// TestOpenLoopAndRamp drives the two rate-based modes end to end at a
// high offered rate so the test stays fast.
func TestOpenLoopAndRamp(t *testing.T) {
	lab, client := newLabTarget(t, 2)
	rep, err := Run(client, lab, Options{
		Mode:     "open",
		Requests: 12,
		Rate:     200,
		Seed:     5,
		Space:    DefaultSpace(hugeScale, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Traffic.Issued != 12 || rep.Traffic.Errors != 0 {
		t.Fatalf("open loop: %+v", rep.Traffic)
	}
	if rep.Config.RateRPS != 200 {
		t.Fatalf("open config: %+v", rep.Config)
	}

	rep, err = Run(client, lab, Options{
		Mode:      "ramp",
		Requests:  6,
		Seed:      5,
		Space:     DefaultSpace(hugeScale, 1),
		RampStart: 100,
		RampStep:  100,
		RampSteps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Traffic.Issued != 12 {
		t.Fatalf("ramp issued %d, want 12", rep.Traffic.Issued)
	}
	if len(rep.Host.Ramp) != 2 {
		t.Fatalf("ramp rows: %+v", rep.Host.Ramp)
	}
	for i, row := range rep.Host.Ramp {
		if row.OfferedRPS != 100*float64(i+1) {
			t.Fatalf("ramp row %d offered %v", i, row.OfferedRPS)
		}
	}
	if rep.Host.Saturated == nil {
		t.Fatal("ramp report missing the explicit saturated marker")
	}
}

// TestRampReportsUnsaturated is the regression test for the ambiguous
// knee: when no offered rate achieves 90%, the report used to show
// knee_rps 0 — indistinguishable from a knee at rate 0. The ramp block
// must carry an explicit saturated:false marker instead.
func TestRampReportsUnsaturated(t *testing.T) {
	lab, client := newLabTarget(t, 1)
	// Make the node far too slow for the offered rates: every segment
	// achieves well under 90% of offer, so no knee exists.
	node, err := lab.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	node.Delay(100 * time.Millisecond)
	defer node.Clear()

	rep, err := Run(client, lab, Options{
		Mode:      "ramp",
		Requests:  4,
		Seed:      7,
		Space:     DefaultSpace(hugeScale, 1),
		Mix:       Mix{Run: 1},
		RampStart: 500,
		RampStep:  500,
		RampSteps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Host.KneeRPS != 0 {
		t.Fatalf("KneeRPS = %v, want 0 (nothing achieved 90%%)", rep.Host.KneeRPS)
	}
	if rep.Host.Saturated == nil || *rep.Host.Saturated {
		t.Fatalf("Saturated = %v, want explicit false", rep.Host.Saturated)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"saturated": false`)) {
		t.Fatalf("JSON report lacks the explicit saturated:false marker:\n%s", buf.String())
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(text.Bytes(), []byte("knee: none")) {
		t.Fatalf("text report does not call out the missing knee:\n%s", text.String())
	}
}

// TestDeadlineExpiredClientSide stamps an immediately-expiring
// deadline on every request: the cluster client must give up without
// attempting, and the run must account every request as an error.
func TestDeadlineExpiredClientSide(t *testing.T) {
	lab, client := newLabTarget(t, 1)
	rep, err := Run(client, lab, Options{
		Mode:     "closed",
		Requests: 4,
		Clients:  1,
		Seed:     9,
		Space:    DefaultSpace(hugeScale, 1),
		Deadline: time.Nanosecond,
		Mix:      Mix{Run: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Traffic.Errors != 4 {
		t.Fatalf("expired deadlines should fail all 4 requests, got %+v", rep.Traffic)
	}
	if rep.Config.DeadlineMS != 0 {
		t.Fatalf("sub-millisecond deadline rounds to 0 ms, got %d", rep.Config.DeadlineMS)
	}
}

// TestDeadlineShedAtNode drives a request with an already-expired
// DeadlineHeader straight at a lab node: the serving path must shed it
// with 503 + Retry-After rather than burn a worker on it.
func TestDeadlineShedAtNode(t *testing.T) {
	lab, _ := newLabTarget(t, 1)
	gen, err := NewGenerator(9, DefaultSpace(hugeScale, 1), Mix{Run: 1})
	if err != nil {
		t.Fatal(err)
	}
	genReq := gen.Request(0)
	req, err := http.NewRequest(http.MethodPost, lab.URLs()[0]+genReq.Endpoint, bytes.NewReader(genReq.Body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(service.DeadlineHeader, service.FormatDeadline(time.Unix(1, 0)))
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline got %d, want 503", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
}
