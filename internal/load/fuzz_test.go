package load

import (
	"reflect"
	"testing"
)

// FuzzParseSchedule drives the chaos-script parser emxload exposes as
// -chaos. Every accepted step must survive a round trip through its
// compact String form: a field String drops (a duration on a kill, a
// node on an owner step) would be silently lost when a schedule is
// echoed or logged. The seed corpus lives in
// testdata/fuzz/FuzzParseSchedule.
func FuzzParseSchedule(f *testing.F) {
	f.Add("kill:1@10,restart:1@40,delay:2@5:50ms")
	f.Fuzz(func(t *testing.T, s string) {
		steps, err := ParseSchedule(s)
		if err != nil {
			return
		}
		for i, st := range steps {
			if i > 0 && st.AtRequest < steps[i-1].AtRequest {
				t.Fatalf("steps not sorted by request: %+v", steps)
			}
			again, err := ParseSchedule(st.String())
			if err != nil {
				t.Fatalf("accepted step %#v renders as %q, which does not parse: %v", st, st.String(), err)
			}
			if len(again) != 1 || !reflect.DeepEqual(again[0], st) {
				t.Fatalf("step %#v renders as %q, which parses back as %#v", st, st.String(), again)
			}
		}
	})
}
