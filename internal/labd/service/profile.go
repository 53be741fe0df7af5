package service

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"emx/internal/harness"
	"emx/internal/labd"
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
// responses, whose bodies are raw emxprof artifacts. RunKeyHeader also
// names the entry of a /v1/cache/put or /v1/cache/get.
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
	lru *labd.LRU[*harness.ProfiledPoint]
}

func newProfileCache(capacity int) *profileCache {
	return &profileCache{lru: labd.NewLRU[*harness.ProfiledPoint](capacity)}
}

func (c *profileCache) get(key string) (*harness.ProfiledPoint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(key)
}

func (c *profileCache) put(key string, pt *harness.ProfiledPoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Add(key, pt)
}

func (c *profileCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	var req ProfileRequest
	if !s.readRequest(w, r, &req) {
		return
	}
	ps, scale, err := resolveProfile(req, s.opts.Scale, s.opts.Seed)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// The profile's identity is the run identity plus the profiling
	// knobs; the render format is presentation only and stays out of it.
	runKey := ps.Key(scale)
	key := fmt.Sprintf("%s/slice=%d", runKey, req.SliceCycles)

	pt, cached := s.prof.get(key)
	if !cached {
		ctx, cancel := RequestContext(r)
		defer cancel()
		pt, err = s.profilePoint(ctx, key, ps, req.SliceCycles)
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

	w.Header().Set(RunKeyHeader, runKey)
	w.Header().Set(SourceHeader, source)
	switch strings.ToLower(req.Format) {
	case "report":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		pt.Profile.WriteReport(w)
	case "perfetto":
		w.Header().Set("Content-Type", "application/json")
		tw := obs.NewTraceWriter(w)
		// The cached profile may have been collected for another paper
		// size that simulates the same point; name it after this request.
		obs.AppendTrace(tw, 1, ps.Label(), pt.Profile, pt.Events, pt.Names)
		tw.Close()
	default:
		w.Header().Set("Content-Type", "application/json")
		pt.Profile.WriteJSON(w)
	}
}

// profilePoint executes one observed point on the scheduler's worker
// pool, outside the run cache (a profile is not a run, and a cached
// run carries no profile), and stores it in the profile cache.
func (s *Server) profilePoint(ctx context.Context, key string, ps harness.PointSpec, slice int64) (*harness.ProfiledPoint, error) {
	pc := harness.NewProfileCollector(obs.Options{SliceCycles: slice})
	if err := s.sched.Exec(ctx, func() error {
		_, err := pc.RunPointObserved(ps)
		return err
	}); err != nil {
		return nil, err
	}
	pt := pc.Points()[0]
	s.prof.put(key, pt)
	return pt, nil
}
