package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"unsafe"
)

func TestRingFIFO(t *testing.T) {
	r := NewRing[int](4)
	for i := 1; i <= 4; i++ {
		if _, dropped := r.Push(i); dropped {
			t.Fatalf("Push(%d) dropped below capacity", i)
		}
	}
	if _, dropped := r.Push(5); !dropped {
		t.Fatal("Push beyond capacity 4 dropped nothing")
	}
	got := r.Snapshot()
	want := []int{2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Snapshot = %v, want %v", got, want)
		}
	}
}

func TestRingEvictsOldest(t *testing.T) {
	r := NewRing[int](3)
	for i := 1; i <= 3; i++ {
		r.Push(i)
	}
	old, dropped := r.Push(4)
	if !dropped || old != 1 {
		t.Fatalf("Push(4) = (%d, %v), want (1, true)", old, dropped)
	}
	old, dropped = r.Push(5)
	if !dropped || old != 2 {
		t.Fatalf("Push(5) = (%d, %v), want (2, true)", old, dropped)
	}
	got := r.Snapshot()
	want := []int{3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("Len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Snapshot = %v, want %v", got, want)
		}
	}
}

// TestRingDefaultCapacity: a ring made with capacity 0 holds
// DefaultCapacity elements. An Event is 24 B, so a default tracer ring
// holds 1.5 MiB of events.
func TestRingDefaultCapacity(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 24 {
		t.Fatalf("Event is %d B, want 24", got)
	}
	r := NewRing[int](0)
	for i := 0; i < DefaultCapacity; i++ {
		if _, dropped := r.Push(i); dropped {
			t.Fatalf("NewRing(0) dropped at %d elements, want room for %d", i, DefaultCapacity)
		}
	}
	if old, dropped := r.Push(DefaultCapacity); !dropped || old != 0 || r.Len() != DefaultCapacity {
		t.Fatalf("NewRing(0) holds more than %d elements", DefaultCapacity)
	}
}

// TestNilTracerNoAllocs pins the disabled-tracer contract: every record
// method on a nil *Tracer is a no-op costing zero allocations.
func TestNilTracerNoAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Cycle(10, 0, PhaseRun, 4)
		tr.Switch(10, 0, CauseRemoteRead, 7)
		tr.Thread(10, 0, ThreadStart, 7)
		tr.Packet(10, 0, PktBypassDMA, 8)
		tr.Hop(10, 0, NetHop, 0)
		tr.Dispatch(10)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestEnabledTracerSteadyStateNoAllocs checks that recording into a
// pre-sized ring allocates nothing once warm (slices are preallocated,
// events are stored by value). Every record method is called, with
// arguments above 255: Go boxes a small integer without allocating, so
// small arguments would hide a value boxed into an interface.
func TestEnabledTracerSteadyStateNoAllocs(t *testing.T) {
	tr := New(Options{P: 2, Capacity: 64})
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Cycle(1000, 0, PhaseRun, 400)
		tr.Switch(1000, 1, CauseIterSync, 700)
		tr.Thread(1000, 1, ThreadStart, 700)
		tr.Packet(1000, 0, PktSpill, 400)
		tr.Hop(1000, 1, NetHop, 400)
		tr.Dispatch(1000)
	})
	if allocs != 0 {
		t.Fatalf("enabled tracer allocated %.1f allocs/op in steady state, want 0", allocs)
	}
}

// TestFinishMergesTracerCounts: Finish keeps the per-PE table it is
// given, with the threads, hops and stall cycles the tracer counted
// merged in, and takes the makespan and engine events as given. The
// other record methods only feed the ring and the slices: they change
// no per-PE figure.
func TestFinishMergesTracerCounts(t *testing.T) {
	tr := New(Options{P: 2, Capacity: 8})
	tr.Thread(0, 0, ThreadStart, 3)
	tr.Thread(5, 1, ThreadStart, 4)
	tr.Thread(9, 1, ThreadStart, 5)
	tr.Thread(90, 0, ThreadEnd, 3)
	tr.Hop(80, 1, NetHop, 2)
	tr.Hop(81, 1, NetEject, 3)
	tr.Hop(82, 0, NetHop, 0)
	tr.Cycle(0, 0, PhaseRun, 100)
	tr.Switch(50, 0, CauseRemoteRead, 3)
	tr.Packet(75, 1, PktSpill, 4)
	tr.Dispatch(82)

	given := []PEProfile{
		{Phases: [NumPhases]int64{60, 20, 8, 4, 8}, Switches: [NumSwitchCauses]uint64{2, 1, 0, 0},
			Dispatches: 5, Spills: 2, ServicedDMA: 3, Threads: 99},
		{Phases: [NumPhases]int64{0, 0, 0, 0, 100}, ServicedEXU: 1, NetHops: 99, NetStall: 99},
	}
	want := []PEProfile{given[0], given[1]}
	want[0].Threads, want[0].NetHops, want[0].NetStall = 1, 1, 0
	want[1].Threads, want[1].NetHops, want[1].NetStall = 2, 2, 5
	tr.Finish(100, 7, given)

	p := tr.Profile()
	if p.Makespan != 100 || p.Dispatched != 7 || p.P != 2 || p.Points != 1 {
		t.Fatalf("header = P=%d points=%d makespan=%d events=%d", p.P, p.Points, p.Makespan, p.Dispatched)
	}
	for pe := range want {
		if p.PEs[pe] != want[pe] {
			t.Errorf("PE%d = %+v, want %+v", pe, p.PEs[pe], want[pe])
		}
	}
	if p.Recorded != 10 {
		t.Errorf("Recorded = %d, want 10 (Dispatch records only when CatSched is retained)", p.Recorded)
	}
	defer func() {
		if recover() == nil {
			t.Error("Finish accepted a table of the wrong size")
		}
	}()
	New(Options{P: 2}).Finish(1, 0, make([]PEProfile, 1))
}

func TestTracerDropCounting(t *testing.T) {
	tr := New(Options{P: 1, Capacity: 2, Retain: MaskOf(CatSwitch)})
	for i := 0; i < 5; i++ {
		tr.Switch(int64(i), 0, CauseExplicit, 1)
	}
	tr.Cycle(9, 0, PhaseRun, 1) // CatCycle not retained: counted, not ringed
	tr.Finish(10, 0, []PEProfile{{Switches: [NumSwitchCauses]uint64{CauseExplicit: 5}}})
	p := tr.Profile()
	if p.Recorded != 6 {
		t.Errorf("Recorded = %d, want 6", p.Recorded)
	}
	if p.Retained != 2 {
		t.Errorf("Retained = %d, want 2", p.Retained)
	}
	if p.Dropped[CatSwitch] != 3 || p.TotalDropped() != 3 {
		t.Errorf("Dropped = %v", p.Dropped)
	}
	// The per-PE counts are the run's own, whatever the ring dropped.
	if p.PEs[0].Switches[CauseExplicit] != 5 {
		t.Errorf("switches = %d, want 5", p.PEs[0].Switches[CauseExplicit])
	}
	if ev := tr.Events(); len(ev) != 2 || ev[0].At != 3 || ev[1].At != 4 {
		t.Errorf("Events = %+v, want the two newest", ev)
	}
}

func TestTracerSlices(t *testing.T) {
	tr := New(Options{P: 1, SliceCycles: 100})
	tr.Cycle(10, 0, PhaseRun, 5)
	tr.Cycle(250, 0, PhaseIdle, 7)
	tr.Finish(260, 0, make([]PEProfile, 1))
	p := tr.Profile()
	if len(p.Slices) != 3 {
		t.Fatalf("%d slices, want 3", len(p.Slices))
	}
	if p.Slices[0].Phases[PhaseRun] != 5 || p.Slices[2].Phases[PhaseIdle] != 7 {
		t.Errorf("slice phases wrong: %+v", p.Slices)
	}
	if p.Slices[1].Phases != ([NumPhases]int64{}) {
		t.Errorf("middle slice not empty: %+v", p.Slices[1])
	}
	if p.Slices[2].To != 260 {
		t.Errorf("last slice To = %d, want clamped 260", p.Slices[2].To)
	}
}

func TestMerge(t *testing.T) {
	// pes is a two-PE table with run cycles on PE0 and one thread-sync
	// switch on PE1.
	pes := func(run int64) []PEProfile {
		return []PEProfile{{Phases: [NumPhases]int64{PhaseRun: run}},
			{Switches: [NumSwitchCauses]uint64{CauseThreadSync: 1}}}
	}
	a := New(Options{P: 2})
	a.Finish(50, 0, pes(10))
	b := New(Options{P: 2})
	b.Finish(70, 0, pes(30))

	ab, err := Merge([]*Profile{a.Profile(), b.Profile()})
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Merge([]*Profile{b.Profile(), a.Profile()})
	if err != nil {
		t.Fatal(err)
	}
	var bufAB, bufBA bytes.Buffer
	if err := ab.WriteJSON(&bufAB); err != nil {
		t.Fatal(err)
	}
	if err := ba.WriteJSON(&bufBA); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufAB.Bytes(), bufBA.Bytes()) {
		t.Error("Merge is not commutative at the byte level")
	}
	if ab.Makespan != 120 || ab.Points != 2 {
		t.Errorf("merged makespan=%d points=%d, want 120, 2", ab.Makespan, ab.Points)
	}
	if ab.PEs[0].Phases[PhaseRun] != 40 || ab.PEs[1].Switches[CauseThreadSync] != 2 {
		t.Errorf("merged PEs = %+v", ab.PEs)
	}

	if _, err := Merge([]*Profile{a.Profile(), New(Options{P: 3}).Profile()}); err == nil {
		t.Error("Merge accepted mismatched machine sizes")
	}
	if _, err := Merge(nil); err == nil {
		t.Error("Merge accepted an empty input")
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	tr := New(Options{P: 1, SliceCycles: 50})
	tr.Cycle(5, 0, PhaseService, 12)
	tr.Finish(40, 0, []PEProfile{{Phases: [NumPhases]int64{PhaseService: 12}}})
	var buf bytes.Buffer
	if err := tr.Profile().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p.PEs[0].Phases[PhaseService] != 12 || p.Makespan != 40 || p.Slices[0].Phases[PhaseService] != 12 {
		t.Errorf("round trip lost data: %+v", p)
	}

	if _, err := LoadProfile(strings.NewReader(`{"version":"emxprof/v0","p":1,"pes":[{}]}`)); err == nil {
		t.Error("LoadProfile accepted a wrong version")
	}
	if _, err := LoadProfile(strings.NewReader(`{"version":"emxprof/v1","p":2,"pes":[{}]}`)); err == nil {
		t.Error("LoadProfile accepted a malformed shape")
	}
}

func TestReportFormat(t *testing.T) {
	tr := New(Options{P: 2})
	tr.Cycle(0, 0, PhaseRun, 300)
	tr.Cycle(0, 1, PhaseIdle, 700)
	tr.Switch(1, 0, CauseRemoteRead, 1)
	tr.Finish(500, 0, []PEProfile{
		{Phases: [NumPhases]int64{PhaseRun: 300}, Switches: [NumSwitchCauses]uint64{CauseRemoteRead: 1}},
		{Phases: [NumPhases]int64{PhaseIdle: 700}},
	})
	rep := tr.Profile().Report()

	for _, want := range []string{
		"events: recorded=3 retained=1 dropped=0\n",
		"machine: P=2  points=1  simulated=500 cycles",
		"remote-read",
		"per-PE cycles and switches:",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	// "top" ordering: idle (700) must appear before run (300).
	if idle, run := strings.Index(rep, "idle"), strings.Index(rep, "\n  run "); idle == -1 || run == -1 || idle > run {
		t.Errorf("phase rows not sorted by cycles desc:\n%s", rep)
	}
	if rep != tr.Profile().Report() {
		t.Error("report not reproducible")
	}
}

func TestWriteDiff(t *testing.T) {
	a := New(Options{P: 1})
	a.Finish(100, 0, []PEProfile{{Phases: [NumPhases]int64{PhaseRun: 100}}})
	b := New(Options{P: 1})
	b.Finish(150, 0, []PEProfile{{Phases: [NumPhases]int64{PhaseRun: 150}}})
	var buf bytes.Buffer
	if err := WriteDiff(&buf, a.Profile(), b.Profile()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"+50.0%", "makespan", "n/a"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestTraceWriterValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.Meta(1, 0, "process_name", `PE "0"`)
	tw.Slice(1, 7, "run", 10, 25)
	tw.Instant(1, 7, "switch:remote-read", 35)
	tw.Counter(1, "phases", 0, []string{"run", "idle"}, []int64{25, 5})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		Events          []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Events) != 4 {
		t.Fatalf("%d events, want 4", len(doc.Events))
	}
	if ph := doc.Events[1]["ph"]; ph != "X" {
		t.Errorf("slice ph = %v, want X", ph)
	}
}

func TestAppendTraceReconstructsRuns(t *testing.T) {
	tr := New(Options{P: 1, SliceCycles: 100})
	tr.ThreadName(0, 7, "worker")
	tr.Thread(0, 0, ThreadStart, 7)
	tr.Cycle(0, 0, PhaseRun, 20)
	tr.Thread(20, 0, ThreadRead, 7)
	tr.Switch(20, 0, CauseRemoteRead, 7)
	tr.Thread(60, 0, ThreadRun, 7)
	tr.Thread(80, 0, ThreadEnd, 7)
	tr.Finish(90, 0, make([]PEProfile, 1))

	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	AppendTrace(tw, 10, "fig4", tr.Profile(), tr.Events(), tr.Names())
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Pid  int64  `json:"pid"`
			Tid  int64  `json:"tid"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	type span struct{ ts, dur int64 }
	var runs []span
	named := false
	for _, ev := range doc.Events {
		if ev.Ph == "X" && ev.Name == "run" && ev.Tid == 7 {
			runs = append(runs, span{ev.Ts, ev.Dur})
			if ev.Pid != 10 {
				t.Errorf("run pid = %d, want pidBase 10", ev.Pid)
			}
		}
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Tid == 7 {
			named = true
		}
	}
	want := []span{{0, 20}, {60, 20}}
	if len(runs) != len(want) || runs[0] != want[0] || runs[1] != want[1] {
		t.Errorf("run intervals = %v, want %v", runs, want)
	}
	if !named {
		t.Error("thread_name metadata missing for frame 7")
	}

	// Byte determinism of the full pipeline.
	var buf2 bytes.Buffer
	tw2 := NewTraceWriter(&buf2)
	AppendTrace(tw2, 10, "fig4", tr.Profile(), tr.Events(), tr.Names())
	if err := tw2.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("AppendTrace output not byte-stable")
	}
}
