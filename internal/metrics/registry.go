package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing operational metric, safe for
// concurrent use. Unlike the per-run measurement structs above, counters
// describe the serving system (internal/labd), not the simulated machine.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add accumulates n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Registry names a set of counters and gauges and renders them in the
// Prometheus text exposition format. It is deliberately tiny — stdlib
// only — and supports exactly what emxd's /metrics endpoint needs:
// plain counters, counters with one label dimension, and computed
// gauges (queue depth, cache size).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	labeled  map[string]map[string]*Counter // name -> label value -> counter
	labelKey map[string]string              // name -> label key
	gauges   map[string]func() float64
	hists    map[string]*Histogram
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		labeled:  map[string]map[string]*Counter{},
		labelKey: map[string]string{},
		gauges:   map[string]func() float64{},
		hists:    map[string]*Histogram{},
		help:     map[string]string{},
	}
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.help[name] = help
	}
	return c
}

// Labeled returns the counter for one value of the metric's single
// label dimension, registering metric and value on first use. A metric
// name keeps the label key of its first registration.
func (r *Registry) Labeled(name, help, labelKey, labelValue string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	vals, ok := r.labeled[name]
	if !ok {
		vals = map[string]*Counter{}
		r.labeled[name] = vals
		r.labelKey[name] = labelKey
		r.help[name] = help
	}
	c, ok := vals[labelValue]
	if !ok {
		c = &Counter{}
		vals[labelValue] = c
	}
	return c
}

// Gauge registers a computed gauge: fn is evaluated at exposition time.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
	r.help[name] = help
}

// Histogram returns the named fixed-bucket histogram, registering it on
// first use. A name keeps the bucket bounds of its first registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
		r.help[name] = help
	}
	return h
}

// sortedKeys returns m's keys in ascending order: every iteration that
// feeds ordered output goes through here, so exposition is independent
// of Go's randomized map order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot returns every metric's current value keyed by its exposition
// name (labeled series as name{key="value"}), for JSON status endpoints.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]float64{}
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, vals := range r.labeled {
		for lv, c := range vals {
			out[fmt.Sprintf("%s{%s=%q}", name, r.labelKey[name], lv)] = float64(c.Value())
		}
	}
	for name, fn := range r.gauges {
		out[name] = fn()
	}
	for name, h := range r.hists {
		out[name+"_sum"] = h.Sum()
		out[name+"_count"] = float64(h.Count())
	}
	return out
}

// WriteProm renders the registry in the Prometheus text format, metrics
// sorted by name (and label value within a metric) so output is stable.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	type metric struct {
		name, kind string
		lines      []string
	}
	// Iterate every family in sorted-name order so the rendered text is
	// a pure function of the registry contents. Families are appended
	// counters -> labeled -> gauges and merged with a stable sort, so
	// even a (pathological) name collision across families renders
	// deterministically.
	ms := make([]metric, 0, len(r.counters)+len(r.labeled)+len(r.gauges)+len(r.hists))
	for _, name := range sortedKeys(r.counters) {
		ms = append(ms, metric{name, "counter",
			[]string{fmt.Sprintf("%s %d", name, r.counters[name].Value())}})
	}
	for _, name := range sortedKeys(r.labeled) {
		vals := r.labeled[name]
		lines := make([]string, 0, len(vals))
		for _, lv := range sortedKeys(vals) {
			lines = append(lines, fmt.Sprintf("%s{%s=%q} %d", name, r.labelKey[name], lv, vals[lv].Value()))
		}
		ms = append(ms, metric{name, "counter", lines})
	}
	for _, name := range sortedKeys(r.gauges) {
		ms = append(ms, metric{name, "gauge",
			[]string{fmt.Sprintf("%s %g", name, r.gauges[name]())}})
	}
	for _, name := range sortedKeys(r.hists) {
		ms = append(ms, metric{name, "histogram", r.hists[name].promLines(name)})
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	var b strings.Builder
	for _, m := range ms {
		if h := help[m.name]; h != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, h)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		for _, line := range m.lines {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
