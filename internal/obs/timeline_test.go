package obs

import (
	"strings"
	"testing"
)

func thread(at int64, pe int32, k ThreadKind, frame uint32) Event {
	return Event{At: at, PE: pe, Cat: CatThread, Code: uint8(k), A: int64(frame)}
}

// twoThreadStream is one PE running two threads that interleave around
// a remote read, plus a non-thread event the renderer must ignore.
func twoThreadStream() ([]Event, []NameEntry) {
	events := []Event{
		thread(0, 0, ThreadStart, 1),
		thread(10, 0, ThreadRead, 1),
		{At: 10, PE: 0, Cat: CatSwitch, Code: uint8(CauseRemoteRead), A: 1},
		thread(12, 0, ThreadStart, 2),
		thread(30, 0, ThreadYield, 2),
		thread(32, 0, ThreadRun, 1),
		thread(40, 0, ThreadEnd, 1),
		thread(42, 0, ThreadRun, 2),
		thread(50, 0, ThreadEnd, 2),
	}
	names := []NameEntry{{PE: 0, Frame: 1, Name: "a"}, {PE: 0, Frame: 2, Name: "b"}, {PE: 0, Frame: 1, Name: "reused"}}
	return events, names
}

func TestBandsReplayThreadEvents(t *testing.T) {
	bands := Bands(twoThreadStream())
	if len(bands) != 2 {
		t.Fatalf("bands = %+v, want 2", bands)
	}
	a, b := bands[0], bands[1]
	if a.Name != "a" || b.Name != "b" {
		t.Fatalf("names %q, %q: a band takes its key's first name entry", a.Name, b.Name)
	}
	if want := []Span{{0, 10}, {32, 40}}; len(a.Runs) != 2 || a.Runs[0] != want[0] || a.Runs[1] != want[1] || a.End != 40 {
		t.Fatalf("band a = %+v", a)
	}
	if want := []Span{{12, 30}, {42, 50}}; len(b.Runs) != 2 || b.Runs[0] != want[0] || b.Runs[1] != want[1] || b.End != 50 {
		t.Fatalf("band b = %+v", b)
	}
}

// TestBandsSkipEvictedOpeners: a close whose start was evicted from the
// ring ends the band but adds no span.
func TestBandsSkipEvictedOpeners(t *testing.T) {
	bands := Bands([]Event{thread(10, 3, ThreadRead, 7), thread(20, 3, ThreadRun, 7), thread(25, 3, ThreadEnd, 7)}, nil)
	if len(bands) != 1 || len(bands[0].Runs) != 1 || bands[0].Runs[0] != (Span{20, 25}) || bands[0].End != 25 {
		t.Fatalf("bands = %+v", bands)
	}
}

func TestWriteTimeline(t *testing.T) {
	events, names := twoThreadStream()
	var b strings.Builder
	if err := WriteTimeline(&b, &Profile{P: 1}, events, names); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(b.String(), "\n")
	want := []string{
		"time: 0 .. 50 cycles (2.50 us), one column = 0.5 cycles",
		"PE0 a |" + strings.Repeat("=", 21) + strings.Repeat(".", 43) + strings.Repeat("=", 17) + strings.Repeat(" ", 19) + "|",
		"PE0 b |" + strings.Repeat(" ", 24) + strings.Repeat("=", 37) + strings.Repeat(".", 23) + strings.Repeat("=", 16) + "|",
		"legend: '=' running   '.' suspended/queued   ' ' inactive",
		"",
		"PE0: 2 starts, 2 resumes, 1 reads, 1 yields, 2 ends",
		"",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("timeline:\n%s\nwant:\n%s", b.String(), strings.Join(want, "\n"))
	}
}

// TestWriteTimelineSummary: each PE gets its own line of lifecycle
// counts, taken from that PE's thread events only.
func TestWriteTimelineSummary(t *testing.T) {
	events := []Event{
		thread(0, 0, ThreadStart, 1),
		thread(0, 1, ThreadStart, 1),
		thread(5, 1, ThreadRead, 1),
		thread(9, 1, ThreadRun, 1),
		thread(12, 1, ThreadRead, 1),
		thread(20, 1, ThreadRun, 1),
		thread(21, 0, ThreadEnd, 1),
		thread(30, 1, ThreadEnd, 1),
	}
	var b strings.Builder
	if err := WriteTimeline(&b, &Profile{P: 2}, events, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"\nPE0: 1 starts, 0 resumes, 0 reads, 0 yields, 1 ends\n",
		"\nPE1: 1 starts, 2 resumes, 2 reads, 0 yields, 1 ends\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, b.String())
		}
	}
}

// TestThreadRingBounded: a timeline tracer's ring keeps the newest
// thread events and counts what it evicted, so memory stays constant
// on arbitrarily long runs.
func TestThreadRingBounded(t *testing.T) {
	tr := New(Options{P: 1, Capacity: 8, Retain: MaskOf(CatThread)})
	for i := 0; i < 100; i++ {
		tr.Thread(int64(1000+i), 0, ThreadRun, 1)
	}
	tr.Finish(1100, 0, make([]PEProfile, 1))
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	if d := tr.Profile().Dropped[CatThread]; d != 92 {
		t.Fatalf("dropped = %d, want 92", d)
	}
	if evs[0].At != 1092 || evs[7].At != 1099 {
		t.Fatalf("ring kept wrong window: first=%d last=%d", evs[0].At, evs[7].At)
	}
}

func TestWriteTimelineEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteTimeline(&b, &Profile{P: 2}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if b.String() != "(no trace events)\n\n" {
		t.Fatalf("empty timeline = %q", b.String())
	}
}

func TestWriteTimelineReportsDrops(t *testing.T) {
	events, names := twoThreadStream()
	prof := &Profile{P: 1}
	prof.Dropped[CatNet] = 5
	var b strings.Builder
	WriteTimeline(&b, prof, events, names)
	if strings.Contains(b.String(), "dropped") {
		t.Fatal("drops of other categories do not truncate a timeline")
	}
	prof.Dropped[CatThread] = 3
	b.Reset()
	WriteTimeline(&b, prof, events, names)
	if first, _, _ := strings.Cut(b.String(), "\n"); !strings.Contains(first, "dropped the 3 earliest thread events") {
		t.Fatalf("first line %q does not report the drops", first)
	}
}
