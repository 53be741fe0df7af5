// Package load is a deterministic traffic lab for the emxd/emxcluster
// serving path. It synthesizes request mixes over /v1/run, /v1/figure,
// and /v1/profile from a single seed, drives them at a target (an
// in-process cluster or external nodes) in open- or closed-loop mode,
// accounts latency and error SLOs, and optionally injects faults from
// a scripted chaos schedule.
//
// The design constraint is reproducibility: the i-th request is a pure
// function of (seed, i), so the multiset of requests a run issues is
// identical regardless of client count, goroutine interleaving, or
// GOMAXPROCS. Everything timing-dependent in the report lives under a
// single "host" key; the rest is byte-deterministic for a given seed.
package load

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"emx/internal/harness"
	"emx/internal/labd/service"
)

// splitmix64 is the per-index mixing function: one full avalanche pass
// over a 64-bit counter. It is the same finalizer family the routing
// ring uses, chosen here so request derivation needs no math/rand and
// no mutable generator state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draws is a stateless stream of uniform draws for one request index.
// Each call advances a counter through splitmix64, so draw k of index
// i is a pure function of (seed, i, k).
type draws struct {
	base uint64
	k    uint64
}

func drawsAt(seed int64, index uint64) *draws {
	return &draws{base: splitmix64(uint64(seed)) ^ splitmix64(index+0x5bf03635)}
}

func (d *draws) next() uint64 {
	d.k++
	return splitmix64(d.base + d.k)
}

// intn returns a draw in [0, n). n must be > 0.
func (d *draws) intn(n int) int {
	return int(d.next() % uint64(n))
}

// float64 returns a draw in (0, 1] — never zero, so it is safe under
// a logarithm.
func (d *draws) float64() float64 {
	return (float64(d.next()>>11) + 1) / (1 << 53)
}

// Mix weights the three endpoints in the synthesized traffic. A zero
// weight removes the endpoint from the mix entirely.
type Mix struct {
	Run     int `json:"run"`
	Figure  int `json:"figure"`
	Profile int `json:"profile"`
}

// DefaultMix is run-heavy with occasional figure sweeps and profiles,
// roughly the shape an emxplot-driven analysis session produces.
var DefaultMix = Mix{Run: 8, Figure: 1, Profile: 1}

func (m Mix) total() int { return m.Run + m.Figure + m.Profile }

// String renders the mix in the ParseMix vocabulary.
func (m Mix) String() string {
	return fmt.Sprintf("run=%d,figure=%d,profile=%d", m.Run, m.Figure, m.Profile)
}

// ParseMix parses "run=8,figure=1,profile=1". Omitted endpoints get
// weight zero; at least one weight must be positive.
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("load: bad mix term %q (want name=weight)", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("load: bad mix weight %q for %q", val, name)
		}
		switch strings.TrimSpace(name) {
		case "run":
			m.Run = w
		case "figure":
			m.Figure = w
		case "profile":
			m.Profile = w
		default:
			return Mix{}, fmt.Errorf("load: unknown mix endpoint %q (want run, figure, or profile)", name)
		}
	}
	if m.total() <= 0 {
		return Mix{}, fmt.Errorf("load: mix %q has no positive weight", s)
	}
	return m, nil
}

// Space is the parameter universe requests draw from. The zero value
// is usable: DefaultSpace fills every field.
type Space struct {
	// Scale and Seed are stamped explicitly into every request body, so
	// routing keys match no matter what defaults the target nodes run
	// with.
	Scale int
	Seed  int64
	// Ps and Hs are the processor and thread-depth choices.
	Ps []int
	Hs []int
	// Workloads are the /v1/run and /v1/profile workload choices.
	Workloads []string
	// Panels are the /v1/figure panel choices.
	Panels []string
	// Variants is how many distinct problem sizes each workload offers;
	// more variants means a colder target cache.
	Variants int
}

// DefaultSpace spans the paper's grid at the given scale and seed.
func DefaultSpace(scale int, seed int64) Space {
	if scale <= 0 {
		scale = harness.DefaultScale
	}
	if seed == 0 {
		seed = 1
	}
	return Space{
		Scale:     scale,
		Seed:      seed,
		Ps:        []int{4, 8, 16, 32, 64},
		Hs:        []int{1, 2, 4, 8, 16},
		Workloads: []string{"bitonic", "fft", "spmv"},
		Panels:    []string{"6a", "6b", "7a", "8a", "sched"},
		Variants:  4,
	}
}

// Request is one synthesized request: the endpoint, the routing key
// the cluster would derive for it, and the JSON body.
type Request struct {
	Endpoint string
	Key      string
	Body     []byte
}

// Generator derives requests from a seed. Request(i) is a pure
// function of (seed, space, mix, i): concurrent clients partition the
// index range and the aggregate traffic is independent of scheduling.
type Generator struct {
	seed  int64
	space Space
	mix   Mix
}

// NewGenerator validates the space against the serving path's own
// request resolution, so a generator that constructs is one whose
// every request the target will accept.
func NewGenerator(seed int64, space Space, mix Mix) (*Generator, error) {
	if mix.total() <= 0 {
		return nil, fmt.Errorf("load: mix has no positive weight")
	}
	if space.Scale <= 0 || space.Seed == 0 || len(space.Ps) == 0 || len(space.Hs) == 0 ||
		len(space.Workloads) == 0 || len(space.Panels) == 0 || space.Variants <= 0 {
		return nil, fmt.Errorf("load: space is missing fields (use DefaultSpace as a base)")
	}
	// Power-of-two scale, P, and H (with the power-of-two problem sizes
	// paperN picks) guarantee every derived simulation size satisfies
	// the workloads' divisibility rules: bitonic and FFT need
	// power-of-two N, spmv needs N divisible by P.
	if space.Scale&(space.Scale-1) != 0 {
		return nil, fmt.Errorf("load: scale must be a power of two, got %d", space.Scale)
	}
	for _, p := range space.Ps {
		if p < 1 || p&(p-1) != 0 {
			return nil, fmt.Errorf("load: P values must be powers of two, got %d", p)
		}
	}
	for _, h := range space.Hs {
		if h < 1 || h&(h-1) != 0 {
			return nil, fmt.Errorf("load: H values must be powers of two, got %d", h)
		}
	}
	for _, w := range space.Workloads {
		if _, err := harness.ParseWorkload(w); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	for _, p := range space.Panels {
		if !harness.ValidPanel(p) {
			return nil, fmt.Errorf("load: unknown panel %q", p)
		}
	}
	sort.Ints(space.Ps)
	sort.Ints(space.Hs)
	sort.Strings(space.Workloads)
	sort.Strings(space.Panels)
	return &Generator{seed: seed, space: space, mix: mix}, nil
}

// paperN picks the paper-equivalent problem size for one workload
// variant: power-of-two multiples of M, so any power-of-two scale
// divides them into sizes every workload accepts. SpMV gets a
// genuinely large matrix even at huge scales; the sort and FFT sizes
// bracket the paper's 1M-element runs.
func (g *Generator) paperN(workload string, variant int) int {
	if workload == "spmv" {
		return 64 * harness.M << variant
	}
	return harness.M / 2 << variant
}

// runRequest derives the /v1/run body shared by run and profile
// traffic for index i.
func (g *Generator) runRequest(d *draws) service.RunRequest {
	w := g.space.Workloads[d.intn(len(g.space.Workloads))]
	return service.RunRequest{
		Workload: w,
		P:        g.space.Ps[d.intn(len(g.space.Ps))],
		H:        g.space.Hs[d.intn(len(g.space.Hs))],
		N:        g.paperN(w, d.intn(g.space.Variants)),
		Scale:    g.space.Scale,
		Seed:     g.space.Seed,
	}
}

// Request derives the i-th request. Its routing key is the one
// service.RouteKey gives its body, as the cluster gateway routes it, so
// a load run exercises the real routing.
func (g *Generator) Request(i uint64) Request {
	d := drawsAt(g.seed, i)
	pick := d.intn(g.mix.total())
	var path string
	var req any
	switch {
	case pick < g.mix.Run:
		path, req = "/v1/run", g.runRequest(d)
	case pick < g.mix.Run+g.mix.Figure:
		fig := g.space.Panels[d.intn(len(g.space.Panels))]
		path, req = "/v1/figure", service.FigureRequest{Fig: fig, Scale: g.space.Scale, Seed: g.space.Seed}
	default:
		path, req = "/v1/profile", service.ProfileRequest{RunRequest: g.runRequest(d)}
	}
	body, _ := json.Marshal(req) // strings, numbers and bools always marshal
	key, err := service.RouteKey(path, body, g.space.Scale, g.space.Seed)
	if err != nil {
		panic(fmt.Sprintf("load: generator produced an invalid %s request: %v", path, err))
	}
	return Request{Endpoint: path, Key: key, Body: body}
}
