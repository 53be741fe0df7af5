package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"emx/internal/harness"
	"emx/internal/metrics"
)

// FuzzResolveRun drives the request→identity mapping every node and the
// gateway share with arbitrary run requests. Accepted requests must be
// inside the request bounds, simulate at least one element per thread
// and, for bitonic and fft, have a power-of-two P; two requests that
// differ only in n or scale and simulate the same n must share one key,
// since n and scale are labels once SimN is resolved. The seed corpus
// lives in testdata/fuzz/FuzzResolveRun.
func FuzzResolveRun(f *testing.F) {
	const defaultScale, defaultSeed = 512, 1
	f.Fuzz(func(t *testing.T, workload string, p, h, n, scale int, seed int64, mode string, n2, scale2 int) {
		req := RunRequest{Workload: workload, P: p, H: h, N: n, Scale: scale, Seed: seed, Mode: mode}
		ps, gotScale, err := ResolveRun(req, defaultScale, defaultSeed)
		if err != nil {
			return
		}
		if ps.P < 1 || ps.P > MaxP || ps.H < 1 || ps.H > MaxH ||
			ps.PaperN < 1 || ps.PaperN > MaxN || gotScale < 1 || gotScale > MaxScale {
			t.Fatalf("accepted out-of-bounds request %+v: spec %+v scale %d", req, ps, gotScale)
		}
		if ps.SimN < ps.P*ps.H {
			t.Fatalf("SimN %d < P*H = %d for %+v", ps.SimN, ps.P*ps.H, req)
		}
		if (ps.Workload == harness.Bitonic || ps.Workload == harness.FFT) && ps.P&(ps.P-1) != 0 {
			t.Fatalf("accepted %v with P=%d, not a power of two", ps.Workload, ps.P)
		}

		alias := req
		alias.N, alias.Scale = n2, scale2
		ps2, gotScale2, err := ResolveRun(alias, defaultScale, defaultSeed)
		if err != nil {
			return
		}
		sameSim, sameKey := ps2.SimN == ps.SimN, ps2.Key(gotScale2) == ps.Key(gotScale)
		if sameSim != sameKey {
			t.Fatalf("SimN %d vs %d, same key %v: %+v vs %+v", ps.SimN, ps2.SimN, sameKey, req, alias)
		}
	})
}

// routePaths are the request paths RouteKey resolves.
var routePaths = [...]string{"/v1/run", "/v1/profile", "/v1/figure"}

// nodeKey is what a node's handler derives from a body at path: it
// decodes the body as readRequest does, resolves it with the handler's
// resolver and returns the key its point is cached under (a run, a
// profile) or its panel routes by (a figure), or the error the node
// answers with.
func nodeKey(path string, body []byte, defaultScale int, defaultSeed int64) (string, error) {
	var ps harness.PointSpec
	var scale int
	var err error
	switch path {
	case "/v1/run":
		var req RunRequest
		if err = decodeRequest(bytes.NewReader(body), &req); err == nil {
			ps, scale, err = ResolveRun(req, defaultScale, defaultSeed)
		}
	case "/v1/profile":
		var req ProfileRequest
		if err = decodeRequest(bytes.NewReader(body), &req); err == nil {
			ps, scale, err = resolveProfile(req, defaultScale, defaultSeed)
		}
	default:
		var req FigureRequest
		if err = decodeRequest(bytes.NewReader(body), &req); err == nil {
			req, err = resolveFigure(req, defaultScale, defaultSeed)
		}
		if err != nil {
			return "", err
		}
		return FigureKey(req.Fig, req.Scale, req.Seed), nil
	}
	if err != nil {
		return "", err
	}
	return ps.Key(scale), nil
}

// FuzzRouteKey checks the gateway's reading of a body against a node's:
// for any body at /v1/run, /v1/profile or /v1/figure, RouteKey fails
// exactly when the node's decode and resolver fail, and when both
// accept, they give one key. The node side runs no simulation. The seed
// corpus lives in testdata/fuzz/FuzzRouteKey and holds bodies with data
// after their JSON value, which a node once served and the gateway
// refused.
func FuzzRouteKey(f *testing.F) {
	const defaultScale, defaultSeed = 512, 1
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		path := routePaths[int(which)%len(routePaths)]
		gw, gwErr := RouteKey(path, body, defaultScale, defaultSeed)
		node, nodeErr := nodeKey(path, body, defaultScale, defaultSeed)
		switch {
		case (gwErr == nil) != (nodeErr == nil):
			t.Fatalf("%s %q: RouteKey error %v, node error %v", path, body, gwErr, nodeErr)
		case gw != node:
			t.Fatalf("%s %q: RouteKey %q, node key %q", path, body, gw, node)
		}
	})
}

// FuzzDecodeEntry drives the receiving side of replication with
// arbitrary entries, the key and digest headers and the body a peer (or
// anyone reaching /v1/cache/put) controls. It must never panic; an
// accepted entry's body must hash to its digest; and re-encoding the
// decoded run must give an entry that decodes to an equal run. The
// seed corpus lives in testdata/fuzz/FuzzDecodeEntry.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, key, digest string, body []byte) {
		run, err := decodeEntry(key, digest, body)
		if err != nil {
			return
		}
		if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != digest {
			t.Fatalf("accepted entry with digest %q, body hashes to %x", digest, sum)
		}
		again, digest2, err := encodeEntry(run)
		if err != nil {
			t.Fatalf("decoded run does not re-encode: %v", err)
		}
		run2, err := decodeEntry(key, digest2, again)
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v", err)
		}
		if !reflect.DeepEqual(run, run2) {
			t.Fatalf("round trip changed the run: %+v vs %+v", run, run2)
		}
	})
}

// FuzzRequestDeadline drives the X-Emx-Deadline parser with arbitrary
// header values. It must never panic; anything but a positive decimal
// nanosecond count is "no deadline"; RequestContext carries exactly
// RequestDeadline's deadline, and none (it is the request's own
// context) when there is no deadline; and a deadline written by
// FormatDeadline reads back exactly, which is what lets the gateway
// relay the header unchanged. The seed corpus lives in
// testdata/fuzz/FuzzRequestDeadline.
func FuzzRequestDeadline(f *testing.F) {
	request := func(v string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/run", nil)
		r.Header.Set(DeadlineHeader, v)
		return r
	}
	parse := func(v string) time.Time { return RequestDeadline(request(v)) }
	f.Fuzz(func(t *testing.T, header string, ns int64) {
		r := request(header)
		got := RequestDeadline(r)
		if want, err := strconv.ParseInt(header, 10, 64); err != nil || want <= 0 {
			if !got.IsZero() {
				t.Fatalf("header %q gave deadline %v, want none", header, got)
			}
		} else if got.UnixNano() != want {
			t.Fatalf("header %q gave %d ns", header, got.UnixNano())
		}

		ctx, cancel := RequestContext(r)
		defer cancel()
		d, ok := ctx.Deadline()
		switch {
		case got.IsZero() && (ok || ctx != r.Context()):
			t.Fatalf("header %q: context has deadline %v (%v), want the request's own context", header, d, ok)
		case !got.IsZero() && (!ok || !d.Equal(got) || d.UnixNano() != got.UnixNano()):
			t.Fatalf("header %q: context deadline %v (%v), want %v", header, d, ok, got)
		}

		if ns <= 0 {
			return
		}
		d = time.Unix(0, ns)
		if back := parse(FormatDeadline(d)); !back.Equal(d) || back.UnixNano() != ns {
			t.Fatalf("deadline %d ns read back as %d", ns, back.UnixNano())
		}
	})
}

// simulateBudget bounds SimN·H, and simulateMaxP the machine size, of
// the points FuzzSimulate runs, so that one iteration takes tens of
// milliseconds: a 1024-PE bitonic point with SimN·H = 1024 takes a
// second.
const simulateBudget, simulateMaxP = 1 << 11, 100

// FuzzSimulate runs the points ResolveRun accepts through RunPoint with
// the workload's self-check on. A point must not panic and must pass its
// self-check; every PE's Figure 8 components must sum to the makespan;
// the Figure 9 switch kinds must sum to the total, with one remote-read
// switch per read request; and a rerun must be identical. Points over
// simulateBudget or simulateMaxP are skipped. The seed corpus in
// testdata/fuzz/FuzzSimulate holds the FFT under EM-4 (exu) servicing,
// which once failed its self-check, and non-power-of-two machines, one
// of which once panicked.
func FuzzSimulate(f *testing.F) {
	const defaultScale, defaultSeed = 512, 1
	f.Fuzz(func(t *testing.T, workload string, p, h, n, scale int, seed int64, mode string, blockRead, replyHigh bool) {
		req := RunRequest{Workload: workload, P: p, H: h, N: n, Scale: scale, Seed: seed,
			Mode: mode, BlockRead: blockRead, ReplyHigh: replyHigh, Verify: true}
		ps, _, err := ResolveRun(req, defaultScale, defaultSeed)
		if err != nil || ps.SimN*ps.H > simulateBudget || ps.P > simulateMaxP {
			return
		}
		run, err := harness.RunPoint(ps)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		var kinds uint64
		for pe := range run.PEs {
			st := &run.PEs[pe]
			if got := st.Times.Total(); got != run.Makespan {
				t.Fatalf("%+v: PE%d components sum to %d, makespan %d", req, pe, got, run.Makespan)
			}
			reads := st.Switches[metrics.SwitchRemoteRead]
			if reads > st.RemoteReads || !ps.BlockRead && reads != st.RemoteReads {
				t.Fatalf("%+v: PE%d has %d remote-read switches for %d words read", req, pe, reads, st.RemoteReads)
			}
			for _, k := range st.Switches {
				kinds += k
			}
		}
		if total := run.SumCounter((*metrics.PE).TotalSwitches); kinds != total {
			t.Fatalf("%+v: switch kinds sum to %d, total %d", req, kinds, total)
		}
		again, err := harness.RunPoint(ps)
		if err != nil {
			t.Fatalf("%+v: rerun: %v", req, err)
		}
		run.HostElapsedSecs, again.HostElapsedSecs = 0, 0
		if !reflect.DeepEqual(run, again) {
			t.Fatalf("%+v: rerun differs", req)
		}
	})
}
