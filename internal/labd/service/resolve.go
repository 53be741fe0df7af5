package service

import (
	"encoding/json"
	"fmt"
	"strings"

	"emx/internal/harness"
	"emx/internal/proc"
)

// RouteKey resolves a /v1/run, /v1/profile or /v1/figure body with the
// defaults and checks a node applies to it, and returns the key the
// cluster routes it by: a run or a profile routes by the cache key of
// its point, a figure by its FigureKey. Given the nodes' default scale
// and seed, RouteKey rejects every body a node refuses before running
// it, and two bodies a node serves as one request route to one owner.
func RouteKey(path string, body []byte, defaultScale int, defaultSeed int64) (string, error) {
	var ps harness.PointSpec
	var scale int
	var err error
	switch path {
	case "/v1/run":
		var req RunRequest
		if err = unmarshal(body, &req); err == nil {
			ps, scale, err = ResolveRun(req, defaultScale, defaultSeed)
		}
	case "/v1/profile":
		var req ProfileRequest
		if err = unmarshal(body, &req); err == nil {
			ps, scale, err = resolveProfile(req, defaultScale, defaultSeed)
		}
	case "/v1/figure":
		var req FigureRequest
		if err = unmarshal(body, &req); err == nil {
			req, err = resolveFigure(req, defaultScale, defaultSeed)
		}
		if err != nil {
			return "", err
		}
		return FigureKey(req.Fig, req.Scale, req.Seed), nil
	default:
		return "", fmt.Errorf("no request resolves at %s", path)
	}
	if err != nil {
		return "", err
	}
	return ps.Key(scale), nil
}

// FigureKey is the routing key of a whole figure panel: all of a
// panel's runs land on one owner, so its sweep caches shard together.
func FigureKey(fig string, scale int, seed int64) string {
	return fmt.Sprintf("figure/%s/scale=%d/seed=%d", fig, scale, seed)
}

// unmarshal decodes a body that holds one JSON value. A node's handlers
// stream the same value and refuse any non-whitespace after it
// (decodeRequest), so a body unmarshal accepts is one a node reads the
// same way, and a body it refuses is one a node refuses.
func unmarshal(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// ResolveRun validates a run request against default scale/seed and
// resolves it to the point it will execute, plus the effective scale.
// It is the single request→identity mapping: the cluster gateway calls
// it, through RouteKey, with the same defaults as its member nodes, so
// the routing key it hashes is exactly the cache key the owning node
// will store under.
func ResolveRun(req RunRequest, defaultScale int, defaultSeed int64) (harness.PointSpec, int, error) {
	w, err := harness.ParseWorkload(strings.ToLower(req.Workload))
	if err != nil {
		return harness.PointSpec{}, 0, err
	}
	scale := req.Scale
	if scale == 0 {
		scale = defaultScale
	}
	for _, b := range []struct {
		name     string
		val, max int
	}{{"p", req.P, MaxP}, {"h", req.H, MaxH}, {"n", req.N, MaxN}, {"scale", scale, MaxScale}} {
		if b.val < 1 || b.val > b.max {
			return harness.PointSpec{}, 0, fmt.Errorf("%s must be in [1, %d], got %d", b.name, b.max, b.val)
		}
	}
	seed := req.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	mode, err := proc.ParseServiceMode(req.Mode)
	if err != nil {
		return harness.PointSpec{}, 0, err
	}
	sw := harness.Sweep{P: req.P, Scale: scale, Threads: []int{req.H}}
	ps := harness.PointSpec{
		Workload:  w,
		P:         req.P,
		SimN:      sw.SimSize(req.N),
		PaperN:    req.N,
		H:         req.H,
		Mode:      mode,
		BlockRead: req.BlockRead,
		ReplyHigh: req.ReplyHigh,
		Seed:      seed,
		Verify:    req.Verify,
	}
	// Reject what the workload cannot run here, so the gateway rejects
	// it too and no worker ever starts it.
	if err := ps.Validate(); err != nil {
		return harness.PointSpec{}, 0, err
	}
	return ps, scale, nil
}

// resolveProfile checks a profile request's render format and slice
// width, then resolves its point as ResolveRun does.
func resolveProfile(req ProfileRequest, defaultScale int, defaultSeed int64) (harness.PointSpec, int, error) {
	switch strings.ToLower(req.Format) {
	case "", "json", "report", "perfetto":
	default:
		return harness.PointSpec{}, 0, fmt.Errorf("unknown profile format %q (want json, report, or perfetto)", req.Format)
	}
	if req.SliceCycles < 0 {
		return harness.PointSpec{}, 0, fmt.Errorf("slice_cycles must be >= 0, got %d", req.SliceCycles)
	}
	return ResolveRun(req.RunRequest, defaultScale, defaultSeed)
}

// resolveFigure returns req with its panel name lower-cased and its
// scale and seed defaulted, or why a node refuses it: an unknown panel
// or a scale below 1.
func resolveFigure(req FigureRequest, defaultScale int, defaultSeed int64) (FigureRequest, error) {
	name := strings.ToLower(req.Fig)
	if !harness.ValidPanel(name) {
		return req, fmt.Errorf("unknown panel %q: valid panels are %s",
			req.Fig, strings.Join(harness.PanelNames(), ", "))
	}
	req.Fig = name
	if req.Scale == 0 {
		req.Scale = defaultScale
	}
	if req.Scale < 1 {
		return req, fmt.Errorf("scale must be >= 1, got %d", req.Scale)
	}
	if req.Seed == 0 {
		req.Seed = defaultSeed
	}
	return req, nil
}
