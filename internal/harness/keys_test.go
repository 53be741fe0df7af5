package harness

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"emx/internal/proc"
)

// runKeysGolden holds one line per pinned point: the point's fields,
// then its run key. The keys were written by the fmt-based encoder the
// byte-for-byte one replaced; a run key that changes silently orphans
// every cached and replicated entry and moves routing owners.
const runKeysGolden = "testdata/runkeys.golden"

// goldenKeyPoints lists every distinct point of the 6a and 6b sweeps at
// the default scale and seed, then one point for each identity field
// those sweeps leave at its default: EXU servicing, resume-first
// replies, block reads, the self-check and a negative seed.
func goldenKeyPoints() []PointSpec {
	var pts []PointSpec
	seen := map[PointSpec]bool{}
	for _, p := range []int{16, 64} {
		s := Sweep{Workload: Bitonic, P: p, Seed: 1}.withDefaults()
		for si := range s.PaperSizes {
			for hi := range s.Threads {
				ps := s.Point(si, hi)
				ps.PaperN = 0
				if !seen[ps] {
					seen[ps] = true
					pts = append(pts, ps)
				}
			}
		}
	}
	return append(pts,
		PointSpec{Workload: FFT, P: 16, SimN: 4096, H: 4, Mode: proc.ServiceEXU, Seed: 1},
		PointSpec{Workload: Bitonic, P: 64, SimN: 8192, H: 8, ReplyHigh: true, Seed: 1},
		PointSpec{Workload: Bitonic, P: 16, SimN: 16384, H: 4, BlockRead: true, Seed: 1},
		PointSpec{Workload: SpMV, P: 16, SimN: 2048, H: 2, Seed: 3, Verify: true},
		PointSpec{Workload: FFT, P: 64, SimN: 65536, H: 16, Seed: -9223372036854775807},
	)
}

func goldenKeyLine(ps PointSpec) string {
	return fmt.Sprintf("%s p=%d simn=%d h=%d seed=%d mode=%s block=%t replyhigh=%t verify=%t %s",
		ps.Workload, ps.P, ps.SimN, ps.H, ps.Seed, ps.Mode, ps.BlockRead, ps.ReplyHigh, ps.Verify, ps.Key(0))
}

// TestRunKeysGolden pins the run key of every golden point.
func TestRunKeysGolden(t *testing.T) {
	f, err := os.Open(runKeysGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	pts := goldenKeyPoints()
	if len(pts) != len(want) {
		t.Fatalf("%d golden points, %s has %d lines", len(pts), runKeysGolden, len(want))
	}
	keys := map[string]bool{}
	for i, ps := range pts {
		got := goldenKeyLine(ps)
		if got != want[i] {
			t.Errorf("run key moved:\n got %s\nwant %s", got, want[i])
		}
		keys[got[strings.LastIndexByte(got, ' ')+1:]] = true
	}
	if len(keys) != len(pts) {
		t.Errorf("%d golden points share %d keys", len(pts), len(keys))
	}
}

// keySink keeps the benchmarked key computations live.
var keySink string

// BenchmarkRunKey times one PointSpec.Key: the config fingerprint, the
// canonical encoding and two SHA-256 sums.
func BenchmarkRunKey(b *testing.B) {
	ps := PointSpec{Workload: Bitonic, P: 16, SimN: 4096, H: 4, Seed: 1}
	b.ReportAllocs()
	for range b.N {
		keySink = ps.Key(0)
	}
}
