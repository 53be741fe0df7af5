package service

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"emx/internal/harness"
	"emx/internal/metrics"
	"emx/internal/obs"
)

// ProfileRequest is the body of POST /v1/profile: one simulation point
// in the /v1/run vocabulary, executed with the emxprof tracer attached.
// Profiled execution is cycle-identical to plain execution, so the
// measurements it implies match what /v1/run reports for the same point.
type ProfileRequest struct {
	RunRequest
	// SliceCycles, when >0, adds whole-machine time slices of this width
	// to the profile.
	SliceCycles int64 `json:"slice_cycles,omitempty"`
	// Format selects the response body: "json" (default, the emxprof/v1
	// profile), "report" (text), or "perfetto" (trace-event JSON).
	Format string `json:"format,omitempty"`
}

// RunKeyHeader and SourceHeader carry the point's content key and how
// the profile was obtained ("executed" or "cache") on /v1/profile
// responses, whose bodies are raw emxprof artifacts rather than
// envelopes.
const (
	RunKeyHeader = "X-Emx-Run-Key"
	SourceHeader = "X-Emx-Source"
)

// profileCache is a small LRU of profiled points. Profiles carry the
// retained event stream, so they are far heavier than a metrics.Run —
// the bound is deliberately separate from (and much smaller than) the
// scheduler's run cache.
type profileCache struct {
	mu  sync.Mutex
	cap int
	seq uint64
	m   map[string]*profEntry
}

type profEntry struct {
	pt   *harness.ProfiledPoint
	used uint64
}

func newProfileCache(capacity int) *profileCache {
	return &profileCache{cap: capacity, m: map[string]*profEntry{}}
}

func (c *profileCache) get(key string) (*harness.ProfiledPoint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.seq++
	e.used = c.seq
	return e.pt, true
}

func (c *profileCache) put(key string, pt *harness.ProfiledPoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	c.m[key] = &profEntry{pt: pt, used: c.seq}
	for len(c.m) > c.cap {
		var oldest string
		var min uint64
		// Minimum of unique use-stamps: the same entry wins in any visit
		// order.
		for k, e := range c.m { //emx:orderinvariant
			if oldest == "" || e.used < min {
				oldest, min = k, e.used
			}
		}
		delete(c.m, oldest)
	}
}

func (c *profileCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req ProfileRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	format := strings.ToLower(req.Format)
	switch format {
	case "", "json", "report", "perfetto":
	default:
		s.writeError(w, fmt.Errorf("unknown profile format %q (want json, report, or perfetto)", req.Format))
		return
	}
	if req.SliceCycles < 0 {
		s.writeError(w, fmt.Errorf("slice_cycles must be >= 0, got %d", req.SliceCycles))
		return
	}
	ps, scale, err := ResolveRun(req.RunRequest, s.opts.Scale, s.opts.Seed)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// The profile's identity is the run identity plus the profiling
	// knobs; the render format is presentation only and stays out of it.
	key := fmt.Sprintf("%s/slice=%d", ps.Key(scale), req.SliceCycles)

	pt, cached := s.prof.get(key)
	if !cached {
		pt, err = s.profilePoint(key, ps, scale, req.SliceCycles, RequestDeadline(r))
		if err != nil {
			s.writeError(w, err)
			return
		}
	}
	source := "executed"
	if cached {
		source = "cache"
	}
	s.profiled(source).Inc()

	w.Header().Set(RunKeyHeader, ps.Key(scale))
	w.Header().Set(SourceHeader, source)
	switch format {
	case "report":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		pt.Profile.WriteReport(w)
	case "perfetto":
		w.Header().Set("Content-Type", "application/json")
		tw := obs.NewTraceWriter(w)
		obs.AppendTrace(tw, 1, pt.Label, pt.Profile, pt.Events, pt.Names)
		tw.Close()
	default:
		w.Header().Set("Content-Type", "application/json")
		pt.Profile.WriteJSON(w)
	}
}

// profilePoint executes one observed point through the scheduler's
// worker pool and stores the result in the profile cache. The
// scheduler's run cache or coalescing may satisfy the Do without
// invoking our function — a skipped execution collects no profile — so
// the fallback re-executes inline against the same deterministic
// simulation (byte-identical profile, just not pooled).
func (s *Server) profilePoint(key string, ps harness.PointSpec, scale int, slice int64, deadline time.Time) (*harness.ProfiledPoint, error) {
	pc := harness.NewProfileCollector(harness.ObsOptions{SliceCycles: slice})
	if _, _, err := s.sched.DoDeadline("profile/"+key, deadline, func() (*metrics.Run, error) {
		return pc.RunPointObserved(ps, scale)
	}); err != nil {
		return nil, err
	}
	pts := pc.Points()
	if len(pts) == 0 {
		if pt, ok := s.prof.get(key); ok {
			return pt, nil
		}
		if _, err := pc.RunPointObserved(ps, scale); err != nil {
			return nil, err
		}
		pts = pc.Points()
	}
	pt := pts[0]
	s.prof.put(key, pt)
	return pt, nil
}
