package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
)

// TraceWriter emits Chrome/Perfetto trace-event JSON (the "JSON Array
// Format" ui.perfetto.dev and chrome://tracing both load). The JSON is
// built by hand — fixed key order, integer timestamps — so the bytes
// are deterministic for a deterministic event sequence.
//
// Timestamps are simulated cycles emitted 1:1 in the "ts" field; the
// clock metadata names the unit so absolute values read as cycles, and
// all relative structure (the only thing a trace viewer shows) is
// exact.
type TraceWriter struct {
	w     *bufio.Writer
	first bool
	err   error
}

// NewTraceWriter starts a trace document on w. Call Close to finish it.
func NewTraceWriter(w io.Writer) *TraceWriter {
	tw := &TraceWriter{w: bufio.NewWriter(w), first: true}
	_, tw.err = tw.w.WriteString(`{"displayTimeUnit":"ns","otherData":{"clock":"sim-cycles @ 20 MHz"},"traceEvents":[`)
	return tw
}

// Close terminates the JSON document and flushes. No writer method may
// be called afterwards.
func (tw *TraceWriter) Close() error {
	if tw.err == nil {
		_, tw.err = tw.w.WriteString("\n]}\n")
	}
	if err := tw.w.Flush(); tw.err == nil {
		tw.err = err
	}
	return tw.err
}

// sep writes the inter-event separator.
func (tw *TraceWriter) sep() {
	if tw.first {
		tw.first = false
		tw.w.WriteString("\n")
		return
	}
	tw.w.WriteString(",\n")
}

func (tw *TraceWriter) kv(key string, v int64) {
	tw.w.WriteString(`,"`)
	tw.w.WriteString(key)
	tw.w.WriteString(`":`)
	tw.w.WriteString(strconv.FormatInt(v, 10))
}

func (tw *TraceWriter) kvs(key, v string) {
	tw.w.WriteString(`,"`)
	tw.w.WriteString(key)
	tw.w.WriteString(`":`)
	tw.w.WriteString(strconv.Quote(v))
}

// Meta emits a metadata record (process_name / thread_name / …).
func (tw *TraceWriter) Meta(pid, tid int64, kind, name string) {
	if tw.err != nil {
		return
	}
	tw.sep()
	tw.w.WriteString(`{"ph":"M","name":`)
	tw.w.WriteString(strconv.Quote(kind))
	tw.kv("pid", pid)
	tw.kv("tid", tid)
	tw.w.WriteString(`,"args":{"name":`)
	tw.w.WriteString(strconv.Quote(name))
	tw.w.WriteString(`}}`)
}

// Slice emits a complete slice ("X") of dur cycles starting at ts.
func (tw *TraceWriter) Slice(pid, tid int64, name string, ts, dur int64) {
	if tw.err != nil {
		return
	}
	tw.sep()
	tw.w.WriteString(`{"ph":"X","name":`)
	tw.w.WriteString(strconv.Quote(name))
	tw.kv("pid", pid)
	tw.kv("tid", tid)
	tw.kv("ts", ts)
	tw.kv("dur", dur)
	tw.w.WriteString(`}`)
}

// Instant emits a thread-scoped instant ("i") at ts.
func (tw *TraceWriter) Instant(pid, tid int64, name string, ts int64) {
	if tw.err != nil {
		return
	}
	tw.sep()
	tw.w.WriteString(`{"ph":"i","s":"t","name":`)
	tw.w.WriteString(strconv.Quote(name))
	tw.kv("pid", pid)
	tw.kv("tid", tid)
	tw.kv("ts", ts)
	tw.w.WriteString(`}`)
}

// Counter emits a multi-series counter sample ("C") at ts; series order
// is the caller's and becomes the byte order.
func (tw *TraceWriter) Counter(pid int64, name string, ts int64, keys []string, vals []int64) {
	if tw.err != nil {
		return
	}
	tw.sep()
	tw.w.WriteString(`{"ph":"C","name":`)
	tw.w.WriteString(strconv.Quote(name))
	tw.kv("pid", pid)
	tw.kv("ts", ts)
	tw.w.WriteString(`,"args":{`)
	for i, k := range keys {
		if i > 0 {
			tw.w.WriteString(",")
		}
		tw.w.WriteString(strconv.Quote(k))
		tw.w.WriteString(":")
		tw.w.WriteString(strconv.FormatInt(vals[i], 10))
	}
	tw.w.WriteString(`}}`)
}

// unitTID is the per-PE synthetic track carrying packet-unit and
// network instants; it is far above any frame ID the allocator hands
// out, so it never collides with a real thread track.
const unitTID = int64(1) << 20

// openRun is a run interval under reconstruction for one (PE, frame).
type openRun struct {
	pe    int32
	frame uint32
	since int64
}

// AppendTrace renders one run's retained events and profile onto tw.
// Each PE becomes a process (pid = pidBase+pe) labelled with label;
// thread run intervals are reconstructed from lifecycle events, context
// switches and packet/network activity become instants, and — when the
// profile was sliced — whole-machine phase counters are emitted per
// slice. Multiple runs share one writer by calling AppendTrace with
// disjoint pidBase ranges in a fixed order.
func AppendTrace(tw *TraceWriter, pidBase int64, label string, prof *Profile, events []Event, names []NameEntry) {
	for pe := 0; pe < prof.P; pe++ {
		pid := pidBase + int64(pe)
		tw.Meta(pid, 0, "process_name", label+" PE "+strconv.Itoa(pe))
		tw.Meta(pid, unitTID, "thread_name", "packet/net units")
	}
	for _, n := range names {
		tw.Meta(pidBase+int64(n.PE), int64(n.Frame), "thread_name", n.Name)
	}

	// Reconstruct run intervals: start/run opens a slice on the thread's
	// track, read/yield/end closes it. A close with no matching open
	// (its opener was evicted from the ring) is dropped; opens still
	// live at the end are closed at the makespan.
	open := make(map[int64]openRun)
	runKey := func(pe int32, frame uint32) int64 {
		return int64(pe)<<32 | int64(frame)
	}
	closeRun := func(pe int32, frame uint32, at int64) {
		k := runKey(pe, frame)
		if o, ok := open[k]; ok {
			tw.Slice(pidBase+int64(pe), int64(frame), "run", o.since, at-o.since)
			delete(open, k)
		}
	}
	for _, ev := range events {
		pid := pidBase + int64(ev.PE)
		switch ev.Cat {
		case CatThread:
			kind, frame := ThreadKind(ev.Code), uint32(ev.A)
			switch kind {
			case ThreadStart, ThreadRun:
				open[runKey(ev.PE, frame)] = openRun{pe: ev.PE, frame: frame, since: ev.At}
			case ThreadRead, ThreadYield, ThreadEnd:
				closeRun(ev.PE, frame, ev.At)
			}
			if kind == ThreadStart || kind == ThreadEnd {
				tw.Instant(pid, int64(frame), "thread-"+kind.String(), ev.At)
			}
		case CatSwitch:
			tw.Instant(pid, int64(uint32(ev.A)), "switch:"+SwitchCause(ev.Code).String(), ev.At)
		case CatPacket:
			if ev.A > 0 {
				tw.Slice(pid, unitTID, PacketKind(ev.Code).String(), ev.At, ev.A)
			} else {
				tw.Instant(pid, unitTID, PacketKind(ev.Code).String(), ev.At)
			}
		case CatNet:
			if ev.A > 0 {
				tw.Instant(pid, unitTID, "net-"+NetKind(ev.Code).String()+"-stall", ev.At)
			}
		case CatCycle:
			tw.Slice(pid, unitTID, "charge:"+Phase(ev.Code).String(), ev.At, ev.A)
		}
	}
	// Flush still-open intervals in deterministic (PE, frame) order —
	// map iteration order must never reach the output.
	var left []openRun
	for _, o := range open {
		left = append(left, o)
	}
	sort.Slice(left, func(i, j int) bool {
		if left[i].pe != left[j].pe {
			return left[i].pe < left[j].pe
		}
		return left[i].frame < left[j].frame
	})
	for _, o := range left {
		tw.Slice(pidBase+int64(o.pe), int64(o.frame), "run", o.since, prof.Makespan-o.since)
	}

	// Whole-machine phase counters, one multi-series sample per slice.
	if len(prof.Slices) > 0 {
		keys := make([]string, NumPhases)
		for ph := Phase(0); ph < NumPhases; ph++ {
			keys[ph] = ph.String()
		}
		vals := make([]int64, NumPhases)
		for i := range prof.Slices {
			s := &prof.Slices[i]
			copy(vals, s.Phases[:])
			tw.Counter(pidBase, label+" phases", s.From, keys, vals)
		}
	}
}
