package service

import "testing"

// FuzzResolveRun drives the request→identity mapping every node and the
// gateway share with arbitrary run requests. Accepted requests must be
// inside the request bounds and simulate at least one element per
// thread; two requests that differ only in n or scale and simulate the
// same n must share one key, since n and scale are labels once SimN is
// resolved. The seed corpus lives in testdata/fuzz/FuzzResolveRun.
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
