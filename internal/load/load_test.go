package load

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestGeneratorPureFunctionOfSeedAndIndex(t *testing.T) {
	space := DefaultSpace(1<<20, 1)
	g1, err := NewGenerator(42, space, DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(42, space, DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	// Same (seed, i) must derive identical requests; out-of-order and
	// repeated derivation must not matter.
	for _, i := range []uint64{17, 0, 5, 17, 3} {
		a, b := g1.Request(i), g2.Request(i)
		if a.Endpoint != b.Endpoint || a.Key != b.Key || string(a.Body) != string(b.Body) {
			t.Fatalf("Request(%d) not reproducible:\n%+v\n%+v", i, a, b)
		}
	}
	g3, err := NewGenerator(43, space, DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := uint64(0); i < 16; i++ {
		if string(g1.Request(i).Body) == string(g3.Request(i).Body) {
			same++
		}
	}
	if same == 16 {
		t.Fatal("different seeds produced identical traffic")
	}
}

func TestGeneratorRequestsAreValid(t *testing.T) {
	g, err := NewGenerator(7, DefaultSpace(512, 3), Mix{Run: 1, Figure: 1, Profile: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := uint64(0); i < 200; i++ {
		req := g.Request(i) // panics on an invalid derivation
		if req.Key == "" || len(req.Body) == 0 {
			t.Fatalf("request %d is empty: %+v", i, req)
		}
		seen[req.Endpoint] = true
		var m map[string]any
		if err := json.Unmarshal(req.Body, &m); err != nil {
			t.Fatalf("request %d body is not JSON: %v", i, err)
		}
	}
	for _, ep := range []string{"/v1/run", "/v1/figure", "/v1/profile"} {
		if !seen[ep] {
			t.Errorf("200 requests with a uniform mix never hit %s", ep)
		}
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	base := DefaultSpace(1<<20, 1)
	bad := base
	bad.Scale = 1000 // not a power of two
	if _, err := NewGenerator(1, bad, DefaultMix); err == nil {
		t.Error("non-power-of-two scale accepted")
	}
	bad = base
	bad.Ps = []int{3}
	if _, err := NewGenerator(1, bad, DefaultMix); err == nil {
		t.Error("non-power-of-two P accepted")
	}
	bad = base
	bad.Workloads = []string{"quicksort"}
	if _, err := NewGenerator(1, bad, DefaultMix); err == nil {
		t.Error("unknown workload accepted")
	}
	bad = base
	bad.Panels = []string{"99z"}
	if _, err := NewGenerator(1, bad, DefaultMix); err == nil {
		t.Error("unknown panel accepted")
	}
	if _, err := NewGenerator(1, base, Mix{}); err == nil {
		t.Error("empty mix accepted")
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("run=8,figure=1,profile=1")
	if err != nil {
		t.Fatal(err)
	}
	if m != (Mix{Run: 8, Figure: 1, Profile: 1}) {
		t.Fatalf("got %+v", m)
	}
	m, err = ParseMix("run=1")
	if err != nil {
		t.Fatal(err)
	}
	if m != (Mix{Run: 1}) {
		t.Fatalf("got %+v", m)
	}
	for _, bad := range []string{"", "run", "run=x", "jog=1", "run=-2", "run=0,figure=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	steps, err := ParseSchedule("restart:1@40,kill:1@10,delay:2@5:50ms")
	if err != nil {
		t.Fatal(err)
	}
	want := []Step{
		{Action: "delay", Node: 2, AtRequest: 5, DelayMS: 50},
		{Action: "kill", Node: 1, AtRequest: 10},
		{Action: "restart", Node: 1, AtRequest: 40},
	}
	if !reflect.DeepEqual(steps, want) {
		t.Fatalf("compact parse:\ngot  %+v\nwant %+v", steps, want)
	}

	// Owner-targeted steps: "owner" in the node slot resolves the victim
	// from the request's routing key when the step fires.
	ownerSteps, err := ParseSchedule("kill:owner@10")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ownerSteps, []Step{{Action: "kill", Owner: true, AtRequest: 10}}) {
		t.Fatalf("owner parse: got %+v", ownerSteps)
	}
	if got := ownerSteps[0].String(); got != "kill:owner@10" {
		t.Fatalf("owner step renders as %q", got)
	}

	if steps, err := ParseSchedule(""); err != nil || steps != nil {
		t.Fatalf("empty schedule: got %v, %v", steps, err)
	}
	for _, bad := range []string{"kill", "kill:x@1", "kill:1@x", "explode:1@1", "delay:1@1", "delay:1@1:xs", "kill:-1@1",
		"kill:1@5:1ms", "delay:1@1:2h", `[{"action":"kill","node":0,"at_request":3}]`} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}
}

func TestCollectorDigestOrderIndependent(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	bodies := [][]byte{
		[]byte(`{"key":"k1","source":"executed","p":4}`),
		[]byte(`{"key":"k2","source":"cache","p":8}`),
		[]byte(`{"key":"k3","source":"coalesced","p":16}`),
	}
	for _, body := range bodies {
		a.Record("/v1/run", 200, body, 0.01, nil)
	}
	for i := len(bodies) - 1; i >= 0; i-- {
		b.Record("/v1/run", 200, bodies[i], 0.02, nil)
	}
	da := a.Traffic().Endpoints["/v1/run"].Digest
	db := b.Traffic().Endpoints["/v1/run"].Digest
	if da != db {
		t.Fatalf("digest depends on completion order: %s vs %s", da, db)
	}

	// The volatile source field must not affect the digest...
	c := NewCollector()
	c.Record("/v1/run", 200, []byte(`{"key":"k1","source":"cache","p":4}`), 0.01, nil)
	c.Record("/v1/run", 200, []byte(`{"key":"k2","source":"executed","p":8}`), 0.01, nil)
	c.Record("/v1/run", 200, []byte(`{"key":"k3","source":"executed","p":16}`), 0.01, nil)
	if d := c.Traffic().Endpoints["/v1/run"].Digest; d != da {
		t.Fatalf("digest saw the source field: %s vs %s", d, da)
	}
	// ...but real payload differences must.
	d := NewCollector()
	d.Record("/v1/run", 200, []byte(`{"key":"k1","source":"executed","p":64}`), 0.01, nil)
	d.Record("/v1/run", 200, bodies[1], 0.01, nil)
	d.Record("/v1/run", 200, bodies[2], 0.01, nil)
	if dd := d.Traffic().Endpoints["/v1/run"].Digest; dd == da {
		t.Fatal("digest missed a payload difference")
	}
}

func TestCollectorAccounting(t *testing.T) {
	c := NewCollector()
	c.Record("/v1/run", 200, []byte(`{}`), 0.01, nil)
	c.Record("/v1/run", 503, nil, 0.001, nil)
	c.Record("/v1/run", 400, []byte(`{"error":"x"}`), 0.001, nil)
	c.Record("/v1/figure", 0, nil, 1.5, errNetwork)
	tr := c.Traffic()
	if tr.Issued != 4 || tr.OK != 1 || tr.Errors != 3 || tr.Shed != 1 {
		t.Fatalf("totals: %+v", tr)
	}
	run := tr.Endpoints["/v1/run"]
	if run.Statuses["200"] != 1 || run.Statuses["503"] != 1 || run.Statuses["400"] != 1 {
		t.Fatalf("run statuses: %+v", run.Statuses)
	}
	fig := tr.Endpoints["/v1/figure"]
	if fig.Errors != 1 || fig.Statuses["0"] != 1 {
		t.Fatalf("figure statuses: %+v", fig)
	}
	slo := c.SLO()
	if got := slo["/v1/run"].ErrorRate; got != 2.0/3.0 {
		t.Fatalf("run error rate: %v", got)
	}
	if slo["/v1/run"].P99Seconds <= 0 {
		t.Fatal("P99 missing from SLO row")
	}
}

var errNetwork = errNet{}

type errNet struct{}

func (errNet) Error() string { return "connection refused" }
