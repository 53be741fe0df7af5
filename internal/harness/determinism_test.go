package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"emx/internal/labd"
	"emx/internal/metrics"
)

// TestFigureCSVDeterministicAcrossWorkers proves host-side scheduling
// never leaks into simulated results: the same figure panel rendered
// from sweeps executed with 1 worker and with 8 workers through the
// labd scheduler is byte-identical. Run under -race in CI.
func TestFigureCSVDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) (string, string) {
		t.Helper()
		sched := labd.New(labd.Options{Workers: workers})
		defer sched.Close()
		res, err := smallSweep(Bitonic).RunOn(sched)
		if err != nil {
			t.Fatal(err)
		}
		f6 := Fig6(res)
		f7, err := Fig7(res)
		if err != nil {
			t.Fatal(err)
		}
		return f6.CSV(), f7.CSV()
	}
	csv6a, csv7a := render(1)
	csv6b, csv7b := render(8)
	if csv6a != csv6b {
		t.Fatalf("Fig6 CSV differs between workers=1 and workers=8:\n%s\nvs\n%s", csv6a, csv6b)
	}
	if csv7a != csv7b {
		t.Fatalf("Fig7 CSV differs between workers=1 and workers=8:\n%s\nvs\n%s", csv7a, csv7b)
	}
	if csv6a == "" || csv7a == "" {
		t.Fatal("empty CSV")
	}
}

// goldenPanelHashes pins the exact figure bytes the pre-fast-path
// simulator (the seed revision) produced, rendered exactly as
// `emxbench -format csv -scale 65536 -seed 1` renders them. The
// operation-buffer fast path and the calendar-queue scheduler are pure
// host-side optimizations: any drift in simulated results — event
// ordering, cycle accounting, counters — shows up here as a hash
// mismatch. Regenerate only when a change intentionally alters
// simulated behavior (and say so in the commit).
var goldenPanelHashes = map[string][]struct{ id, sha string }{
	"6a":      {{"fig6-bitonic-P16", "e1f579ef80bf33ade024ff5156156cca73b877902f4a0cbe013effb407c64434"}},
	"model":   {{"xmodel", "ee30f48845af409afe42556e5b27ef9cf93d298585b04dd7f4315e6baee86b49"}},
	"latency": {{"xlatency", "e5bda51eafdd804fea2389523347d4fbef13feebc7e5cf6f591bf333635a0bb3"}},
	"em4": {
		{"xem4-bitonic", "ee53a7212f2ed28a7a4d52507fad80e5149db98ec06ae84b02efe322406b8fcf"},
		{"xem4-fft", "e7811af5a48a20c0a3696433def5f5f6840fdded6e13932c9ca295bcaaf5f837"},
	},
	"irr": {{"xirr", "20816c61bec2762a88612ef8a96af0747b11da8c07339b51a85682c83337a76c"}},
	// Block-read sends and resume-first replies, pinned from the
	// event-per-step network before its steps moved to their own calendar.
	"block": {{"xblock", "248b4f450099b496ac3da00e43f849cb152f84393602ef71049809381da59c28"}},
	"sched": {
		{"xsched-bitonic", "9d98748fe8674783b7000c67d950190ef619589c344527eea087522737cc6d48"},
		{"xsched-fft", "f3bee2d31f5831e01adf6309c7690fc6baf1101dbe69ceda4db4f51974f59e81"},
	},
	// The two P=64 panels perfbench's figures workload times, pinned
	// before the calendar's slots were written field by field.
	"6b": {{"fig6-bitonic-P64", "d26d84588a385ef4efdd5a5afa89eab10bf4f9d5615b3c20917418b84b8cac84"}},
	"6d": {{"fig6-fft-P64", "4707fbb02b1067facf9693f0151c5162167eb6cede041ab10639ee06f6121252"}},
}

func TestFigureGoldenHashes(t *testing.T) {
	heavy := map[string]bool{"em4": true, "irr": true, "6b": true, "6d": true}
	sched := labd.New(labd.Options{})
	defer sched.Close()
	pr := NewPanelRunner(PanelOptions{Scale: 65536, Seed: 1}, sched)
	for _, name := range []string{"6a", "model", "latency", "em4", "irr", "block", "sched", "6b", "6d"} {
		if testing.Short() && heavy[name] {
			continue
		}
		figs, err := pr.Panel(name)
		if err != nil {
			t.Fatalf("panel %s: %v", name, err)
		}
		golds := goldenPanelHashes[name]
		if len(figs) != len(golds) {
			t.Fatalf("panel %s yielded %d figures, want %d", name, len(figs), len(golds))
		}
		for i, f := range figs {
			if f.ID != golds[i].id {
				t.Fatalf("panel %s figure %d is %q, want %q", name, i, f.ID, golds[i].id)
			}
			// Byte-for-byte the emxbench CSV block: header line, CSV, and
			// the println separator.
			blob := fmt.Sprintf("# %s [%s]\n%s\n", f.Title, f.ID, f.CSV())
			sum := sha256.Sum256([]byte(blob))
			if got := hex.EncodeToString(sum[:]); got != golds[i].sha {
				t.Errorf("panel %s figure %s: hash %s, want %s\nsimulated results drifted from the seed:\n%s",
					name, f.ID, got, golds[i].sha, blob)
			}
		}
	}
}

// TestFarFutureBlockReadPointPinned pins one bitonic block-read point
// whose reply bursts queue network ports far deeper than the engine's
// near-future window, so many of its network steps are scheduled 1024
// or more cycles ahead, which no figure panel at the golden scale
// reaches. The digest covers the whole metrics.Run except its two
// host-side costs: HostElapsedSecs, and SimEvents, which counts engine
// dispatches, not simulated work.
func TestFarFutureBlockReadPointPinned(t *testing.T) {
	run, err := RunPoint(PointSpec{Workload: Bitonic, P: 16, SimN: 16384, PaperN: 16384, H: 4, BlockRead: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	run.HostElapsedSecs, run.SimEvents = 0, 0
	blob, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	const want = "9da2b88e96ade91b57d7af01ebb813e00253bfe4f04d444ea6243f223414df69"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("block-read point: hash %s, want %s\n%s", got, want, blob)
	}
}

// TestSpillPathDeterministicAcrossWorkers forces packet-queue spills
// (16 threads per PE overflow the 8-slot on-chip FIFOs) and proves the
// spill/restore dispatch path stays deterministic under the
// operation-buffer fast path: every simulated measurement — FIFO
// dispatch counts, spill counters, the full breakdown — is identical
// whether the grid runs on 1 or 8 host workers.
func TestSpillPathDeterministicAcrossWorkers(t *testing.T) {
	spillSweep := Sweep{
		Workload:   Bitonic,
		P:          4,
		PaperSizes: []int{256 * K},
		Scale:      1024,
		Threads:    []int{8, 16},
		Seed:       7,
	}
	grid := func(workers int) *SweepResult {
		t.Helper()
		res, err := spillSweep.Run(workers)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := grid(1), grid(8)
	var spills uint64
	for si := range a.Runs {
		for hi := range a.Runs[si] {
			ra, rb := a.Runs[si][hi], b.Runs[si][hi]
			// Host timing is the one legitimately non-deterministic field.
			ra.HostElapsedSecs, rb.HostElapsedSecs = 0, 0
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("cell (%d,%d) differs between workers=1 and workers=8:\n%+v\nvs\n%+v", si, hi, ra, rb)
			}
			spills += ra.SumCounter(func(pe *metrics.PE) uint64 { return pe.Spills })
		}
	}
	if spills == 0 {
		t.Fatal("sweep produced no packet-queue spills; the test no longer exercises the spill path")
	}
}

// TestSweepRunMatchesRunOn: the convenience Run(workers) path and an
// explicit scheduler produce identical grids.
func TestSweepRunMatchesRunOn(t *testing.T) {
	a, err := smallSweep(FFT).Run(2)
	if err != nil {
		t.Fatal(err)
	}
	sched := labd.New(labd.Options{Workers: 2})
	defer sched.Close()
	b, err := smallSweep(FFT).RunOn(sched)
	if err != nil {
		t.Fatal(err)
	}
	for si := range a.Runs {
		for hi := range a.Runs[si] {
			if a.Runs[si][hi].Makespan != b.Runs[si][hi].Makespan {
				t.Fatalf("cell (%d,%d) differs between Run and RunOn", si, hi)
			}
		}
	}
}

// countingExec counts the Do calls a sweep makes on its executor.
type countingExec struct {
	sched *labd.Scheduler
	mu    sync.Mutex
	keys  []string
}

func (e *countingExec) Do(key string, fn func() (*metrics.Run, error)) (*metrics.Run, labd.Source, error) {
	e.mu.Lock()
	e.keys = append(e.keys, key)
	e.mu.Unlock()
	return e.sched.Do(key, fn)
}

// TestSweepCoalescesDuplicatePoints: a sweep whose distinct paper sizes
// clamp to one simulated n submits each distinct simulation once, and
// every cell still reports its own paper size — without mutating the
// result the executor caches.
func TestSweepCoalescesDuplicatePoints(t *testing.T) {
	sched := labd.New(labd.Options{Workers: 4})
	defer sched.Close()
	exec := &countingExec{sched: sched}
	s := Sweep{
		Workload:   Bitonic,
		P:          4,
		PaperSizes: []int{128 * K, 64 * K}, // both clamp to P*maxH = 8
		Scale:      1 << 20,
		Threads:    []int{1, 2},
		Seed:       3,
	}
	res, err := s.RunOn(exec)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for si := range s.PaperSizes {
		for hi := range s.Threads {
			distinct[s.Point(si, hi).Key(s.Scale)] = true
		}
	}
	// 4 grid cells, 2 distinct simulations (the size rows collapse).
	if len(distinct) != 2 || len(exec.keys) != len(distinct) {
		t.Fatalf("%d executor calls for %d distinct keys, want 2 and 2", len(exec.keys), len(distinct))
	}
	if st := sched.Stats(); st.Started != 2 || st.CacheHits+st.Coalesced != 0 {
		t.Fatalf("started=%d hits=%d coalesced=%d, want 2 executions and no duplicate submissions",
			st.Started, st.CacheHits, st.Coalesced)
	}
	for si, paperN := range s.PaperSizes {
		for hi := range s.Threads {
			if got := res.Runs[si][hi].PaperN; got != paperN {
				t.Errorf("cell (%d,%d) PaperN = %d, want its own %d", si, hi, got, paperN)
			}
		}
	}
	if res.Runs[0][0].Makespan != res.Runs[1][0].Makespan {
		t.Fatal("identical points produced different results")
	}
	// The cached run keeps the representative's (first row's) label.
	cached, ok := sched.CacheGet(s.Point(1, 0).Key(s.Scale))
	if !ok || cached.PaperN != s.PaperSizes[0] {
		t.Fatalf("cached run PaperN = %v (cached %v), want the representative's %d", cached, ok, s.PaperSizes[0])
	}
}

func TestPointSpecKeyStable(t *testing.T) {
	ps := Sweep{Workload: FFT, P: 4, PaperSizes: []int{64 * K}, Scale: 512, Threads: []int{2}, Seed: 1}.
		withDefaults().Point(0, 0)
	if ps.Key(512) != ps.Key(512) {
		t.Fatal("key not deterministic")
	}
	// Scale and PaperN are labels: their effect on the simulation is
	// already in SimN, so they do not change the key.
	if ps.Key(512) != ps.Key(256) {
		t.Fatal("scale changed the key")
	}
	relabelled := ps
	relabelled.PaperN = 128 * K
	if ps.Key(512) != relabelled.Key(512) {
		t.Fatal("PaperN changed the key")
	}
	for name, mutate := range map[string]func(*PointSpec){
		"seed": func(p *PointSpec) { p.Seed = 2 },
		"simn": func(p *PointSpec) { p.SimN *= 2 },
	} {
		other := ps
		mutate(&other)
		if ps.Key(512) == other.Key(512) {
			t.Errorf("%s not part of the identity", name)
		}
	}
}
