package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Span is one interval [From, To) during which a thread owned its EXU.
type Span struct{ From, To int64 }

// Band is one thread's reconstructed activity: the running spans
// between a start or resume and the following read, yield or end.
type Band struct {
	PE    int32
	Frame uint32
	Name  string
	Runs  []Span
	// End is the time of the band's last read, yield or end event.
	End int64
}

// Bands replays the retained CatThread events into one band per
// (PE, frame), ordered by PE then frame. A band is named by the first
// NameEntry for its key. A close whose opener was evicted from the
// ring adds no span.
func Bands(events []Event, names []NameEntry) []Band {
	type key struct {
		pe    int32
		frame uint32
	}
	name := map[key]string{}
	for _, n := range names {
		k := key{n.PE, n.Frame}
		if _, ok := name[k]; !ok {
			name[k] = n.Name
		}
	}
	idx := map[key]int{}
	open := map[key]int64{}
	var out []Band
	for _, ev := range events {
		if ev.Cat != CatThread {
			continue
		}
		k := key{ev.PE, uint32(ev.A)}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, Band{PE: k.pe, Frame: k.frame, Name: name[k]})
		}
		b := &out[i]
		switch ThreadKind(ev.Code) {
		case ThreadStart, ThreadRun:
			open[k] = ev.At
		case ThreadRead, ThreadYield, ThreadEnd:
			if from, ok := open[k]; ok {
				b.Runs = append(b.Runs, Span{From: from, To: ev.At})
				delete(open, k)
			}
			b.End = ev.At
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].PE != out[j].PE {
			return out[i].PE < out[j].PE
		}
		return out[i].Frame < out[j].Frame
	})
	return out
}

// WriteTimeline renders one run's thread events as the paper's Figure
// 4/5 execution diagram: one row per thread, '=' while it runs on the
// EXU and '.' while it is suspended or queued, followed by per-PE
// lifecycle counts. When the ring evicted thread events, a leading
// line says how many, since the earliest bands are then incomplete.
func WriteTimeline(w io.Writer, prof *Profile, events []Event, names []NameEntry) error {
	var b strings.Builder
	if d := prof.Dropped[CatThread]; d > 0 {
		fmt.Fprintf(&b, "truncated: the event ring dropped the %d earliest thread events; raise emxprof -capacity for whole bands\n", d)
	}
	writeBands(&b, Bands(events, names))
	b.WriteString("\n")
	writeThreadCounts(&b, events)
	_, err := io.WriteString(w, b.String())
	return err
}

func writeBands(b *strings.Builder, bands []Band) {
	if len(bands) == 0 {
		b.WriteString("(no trace events)\n")
		return
	}
	var horizon int64
	labelW := 0
	for _, bd := range bands {
		horizon = max(horizon, bd.End)
		labelW = max(labelW, len(bandLabel(bd)))
	}
	if horizon == 0 {
		horizon = 1
	}
	const width = 100 // time columns
	fmt.Fprintf(b, "time: 0 .. %d cycles (%.2f us), one column = %.1f cycles\n",
		horizon, cyclesMicros(horizon), float64(horizon)/width)
	col := func(t int64) int { return min(int(t*width/horizon), width-1) }
	for _, bd := range bands {
		row := []byte(strings.Repeat(" ", width))
		first := int64(-1)
		for _, s := range bd.Runs {
			if first < 0 || s.From < first {
				first = s.From
			}
		}
		for c := col(max(first, 0)); c <= col(bd.End); c++ {
			row[c] = '.'
		}
		for _, s := range bd.Runs {
			for c := col(s.From); c <= col(s.To); c++ {
				row[c] = '='
			}
		}
		fmt.Fprintf(b, "%-*s |%s|\n", labelW, bandLabel(bd), row)
	}
	b.WriteString("legend: '=' running   '.' suspended/queued   ' ' inactive\n")
}

func bandLabel(bd Band) string { return fmt.Sprintf("PE%d %s", bd.PE, bd.Name) }

// writeThreadCounts writes one line of lifecycle counts per PE that
// has thread events, in PE order.
func writeThreadCounts(b *strings.Builder, events []Event) {
	counts := map[int32]*[NumThreadKinds]int{}
	var pes []int32
	for _, ev := range events {
		if ev.Cat != CatThread {
			continue
		}
		c := counts[ev.PE]
		if c == nil {
			c = new([NumThreadKinds]int)
			counts[ev.PE] = c
			pes = append(pes, ev.PE)
		}
		c[ev.Code]++
	}
	sort.Slice(pes, func(i, j int) bool { return pes[i] < pes[j] })
	for _, pe := range pes {
		c := counts[pe]
		fmt.Fprintf(b, "PE%d: %d starts, %d resumes, %d reads, %d yields, %d ends\n",
			pe, c[ThreadStart], c[ThreadRun], c[ThreadRead], c[ThreadYield], c[ThreadEnd])
	}
}
