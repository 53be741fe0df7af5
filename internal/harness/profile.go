package harness

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"emx/internal/metrics"
	"emx/internal/obs"
)

// ProfiledPoint is the observation of one executed grid point.
type ProfiledPoint struct {
	// Key is the point's content hash — the same key the executor
	// scheduled it under.
	Key string
	// Label is the human-readable point identity.
	Label string

	Profile *obs.Profile
	Events  []obs.Event
	Names   []obs.NameEntry
}

// ProfileCollector gathers per-point profiles from observed runs. Points
// execute concurrently in sweeps; the collector keys them by content
// hash and exports them in sorted order, so its outputs are byte-
// deterministic regardless of worker count or completion order.
type ProfileCollector struct {
	opts obs.Options

	mu     sync.Mutex
	points map[string]*ProfiledPoint
}

// NewProfileCollector returns an empty collector whose per-point
// tracers take opts, with P set to each point's machine size.
func NewProfileCollector(opts obs.Options) *ProfileCollector {
	return &ProfileCollector{opts: opts, points: map[string]*ProfiledPoint{}}
}

// RunPointObserved executes one point with a fresh tracer attached and
// stores the resulting profile under the point's cache key. The
// simulation is cycle-identical to an unobserved RunPoint.
func (c *ProfileCollector) RunPointObserved(ps PointSpec) (*metrics.Run, error) {
	opts := c.opts
	opts.P = ps.P
	tr := obs.New(opts)
	run, err := runPoint(ps, tr)
	if err != nil {
		return nil, err
	}
	pt := &ProfiledPoint{
		Key:     ps.Identity().Hash(),
		Label:   ps.Label(),
		Profile: tr.Profile(),
		Events:  tr.Events(),
		Names:   tr.Names(),
	}
	c.mu.Lock()
	c.points[pt.Key] = pt
	c.mu.Unlock()
	return run, nil
}

// Points returns the collected points sorted by (Label, Key) — a
// deterministic order independent of execution interleaving.
func (c *ProfileCollector) Points() []*ProfiledPoint {
	c.mu.Lock()
	out := make([]*ProfiledPoint, 0, len(c.points))
	for _, pt := range c.points {
		out = append(out, pt)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Merged sums every collected point profile into one (all points must
// share a machine size, as a panel sweep's do).
func (c *ProfileCollector) Merged() (*obs.Profile, error) {
	pts := c.Points()
	if len(pts) == 0 {
		return nil, fmt.Errorf("harness: no profiled points collected")
	}
	profs := make([]*obs.Profile, len(pts))
	for i, pt := range pts {
		profs[i] = pt.Profile
	}
	return obs.Merge(profs)
}

// pidStride separates the Perfetto process-ID ranges of successive
// points; it only needs to exceed the largest machine size (80 PEs on
// the prototype, 128 switch nodes).
const pidStride = 1024

// WriteTrace renders every collected point into one Perfetto trace
// document, each point's PEs under its own process-ID range, in sorted
// point order.
func (c *ProfileCollector) WriteTrace(w io.Writer) error {
	pts := c.Points()
	if len(pts) == 0 {
		return fmt.Errorf("harness: no profiled points collected")
	}
	tw := obs.NewTraceWriter(w)
	for i, pt := range pts {
		obs.AppendTrace(tw, int64(1+i*pidStride), pt.Label, pt.Profile, pt.Events, pt.Names)
	}
	return tw.Close()
}
