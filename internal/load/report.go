package load

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"sync"

	"emx/internal/cluster"
	"emx/internal/metrics"
)

// Schema identifies the report format.
const Schema = "emxload/v1"

// Report is one load run's result. Everything outside Host is a pure
// function of (seed, options, schedule) when the target serves every
// request — byte-for-byte reproducible across hosts, client counts,
// and GOMAXPROCS. Everything timing-dependent (wall time, rates,
// latency quantiles, failover counters, ramp rows) lives under the
// single Host key, so callers can compare reports modulo "host".
type Report struct {
	Schema  string       `json:"schema"`
	Mode    string       `json:"mode"`
	Seed    int64        `json:"seed"`
	Config  Config       `json:"config"`
	Traffic Traffic      `json:"traffic"`
	Chaos   *ChaosReport `json:"chaos,omitempty"`
	Host    *Host        `json:"host,omitempty"`
}

// Config echoes the run's knobs.
type Config struct {
	Requests   int     `json:"requests"`
	Clients    int     `json:"clients,omitempty"`
	RateRPS    float64 `json:"rate_rps,omitempty"`
	Mix        string  `json:"mix"`
	Scale      int     `json:"scale"`
	RunSeed    int64   `json:"run_seed"`
	DeadlineMS int64   `json:"deadline_ms,omitempty"`
	Nodes      int     `json:"nodes"`

	RampStartRPS float64 `json:"ramp_start_rps,omitempty"`
	RampStepRPS  float64 `json:"ramp_step_rps,omitempty"`
	RampSteps    int     `json:"ramp_steps,omitempty"`
}

// Traffic is the deterministic accounting: what was issued and what
// came back, plus an order-independent digest of the response bodies.
type Traffic struct {
	Issued    uint64                      `json:"issued"`
	OK        uint64                      `json:"ok"`
	Errors    uint64                      `json:"errors"`
	Shed      uint64                      `json:"shed"`
	Endpoints map[string]*EndpointTraffic `json:"endpoints"`
}

// EndpointTraffic is one endpoint's slice of the traffic block. Digest
// is a commutative combination (sum and xor) of FNV-64a hashes over
// canonicalized 2xx response bodies: the same response multiset yields
// the same digest in any completion order.
type EndpointTraffic struct {
	Issued   uint64            `json:"issued"`
	OK       uint64            `json:"ok"`
	Errors   uint64            `json:"errors"`
	Shed     uint64            `json:"shed"`
	Statuses map[string]uint64 `json:"statuses"`
	Digest   string            `json:"digest"`
}

// ChaosReport echoes the fault schedule and what fired.
type ChaosReport struct {
	Schedule []Step   `json:"schedule"`
	Fired    int      `json:"fired"`
	Errors   []string `json:"errors,omitempty"`
}

// SLORow is one endpoint's latency/error SLO summary (host-timing
// dependent, so it lives under Host).
type SLORow struct {
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	ErrorRate  float64 `json:"error_rate"`
}

// ClientStats mirrors cluster.Stats with JSON names, reporting what
// the failover machinery did during the run (deltas, not lifetime).
type ClientStats struct {
	Attempts       uint64 `json:"attempts"`
	Retries        uint64 `json:"retries"`
	Failovers      uint64 `json:"failovers"`
	Hedges         uint64 `json:"hedges"`
	HedgeWins      uint64 `json:"hedge_wins"`
	HedgeLosses    uint64 `json:"hedge_losses"`
	LocalFallbacks uint64 `json:"local_fallbacks"`
}

func clientStats(s cluster.Stats) ClientStats {
	return ClientStats{
		Attempts:       s.Attempts,
		Retries:        s.Retries,
		Failovers:      s.Failovers,
		Hedges:         s.Hedges,
		HedgeWins:      s.HedgeWins,
		HedgeLosses:    s.HedgeLosses,
		LocalFallbacks: s.LocalFallbacks,
	}
}

// RampRow is one offered-load step of a ramp run.
type RampRow struct {
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	P99Seconds  float64 `json:"p99_seconds"`
	Errors      uint64  `json:"errors"`
}

// ReplicationStats sums the lab nodes' cache-replication counters
// (the emxd_cache_replica_* series). Present only when the lab ran
// with -replicas > 1.
type ReplicationStats struct {
	Pushes           uint64 `json:"pushes"`
	PushErrors       uint64 `json:"push_errors"`
	Stores           uint64 `json:"stores"`
	Fills            uint64 `json:"fills"`
	FillMisses       uint64 `json:"fill_misses"`
	DigestMismatches uint64 `json:"digest_mismatches"`
	QueueDrops       uint64 `json:"queue_drops"`
}

// Host gathers every timing-dependent observation.
type Host struct {
	WallSeconds float64           `json:"wall_seconds"`
	AchievedRPS float64           `json:"achieved_rps"`
	SLO         map[string]SLORow `json:"slo"`
	Client      ClientStats       `json:"client"`
	Replication *ReplicationStats `json:"replication,omitempty"`
	Ramp        []RampRow         `json:"ramp,omitempty"`
	// KneeRPS is the last offered rate the target achieved ≥90% of.
	// Saturated disambiguates its zero value: in ramp mode it is always
	// present, and false means no step qualified (KneeRPS 0 is "no
	// knee found", not "knee at rate 0").
	KneeRPS   float64 `json:"knee_rps,omitempty"`
	Saturated *bool   `json:"saturated,omitempty"`
}

// WithoutHost returns a copy with the Host block removed — the
// byte-comparable part of the report.
func (r *Report) WithoutHost() *Report {
	cp := *r
	cp.Host = nil
	return &cp
}

// WriteJSON writes the report as indented JSON. Map keys marshal
// sorted, struct fields in declaration order: deterministic bytes for
// deterministic contents.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteText writes a human-oriented report: the deterministic traffic
// accounting first, host timing after.
func (r *Report) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "emxload %s seed=%d mix=%s scale=%d nodes=%d\n",
		r.Mode, r.Seed, r.Config.Mix, r.Config.Scale, r.Config.Nodes)
	fmt.Fprintf(w, "traffic: issued=%d ok=%d errors=%d shed=%d\n",
		r.Traffic.Issued, r.Traffic.OK, r.Traffic.Errors, r.Traffic.Shed)
	for _, ep := range sortedKeys(r.Traffic.Endpoints) {
		t := r.Traffic.Endpoints[ep]
		fmt.Fprintf(w, "  %-12s issued=%d ok=%d errors=%d shed=%d digest=%s\n",
			ep, t.Issued, t.OK, t.Errors, t.Shed, t.Digest)
	}
	if r.Chaos != nil {
		fmt.Fprintf(w, "chaos: %d steps, %d fired\n", len(r.Chaos.Schedule), r.Chaos.Fired)
		for _, st := range r.Chaos.Schedule {
			fmt.Fprintf(w, "  %s\n", st)
		}
	}
	if r.Host == nil {
		return nil
	}
	fmt.Fprintf(w, "host: wall=%.3fs achieved=%.1f req/s\n", r.Host.WallSeconds, r.Host.AchievedRPS)
	for _, ep := range sortedKeys(r.Host.SLO) {
		s := r.Host.SLO[ep]
		fmt.Fprintf(w, "  %-12s p50=%.4fs p95=%.4fs p99=%.4fs err=%.4f\n",
			ep, s.P50Seconds, s.P95Seconds, s.P99Seconds, s.ErrorRate)
	}
	c := r.Host.Client
	fmt.Fprintf(w, "  client: attempts=%d retries=%d failovers=%d hedges=%d (won=%d lost=%d) local=%d\n",
		c.Attempts, c.Retries, c.Failovers, c.Hedges, c.HedgeWins, c.HedgeLosses, c.LocalFallbacks)
	if rp := r.Host.Replication; rp != nil {
		fmt.Fprintf(w, "  replication: pushes=%d (errors=%d) stores=%d fills=%d (misses=%d) mismatches=%d drops=%d\n",
			rp.Pushes, rp.PushErrors, rp.Stores, rp.Fills, rp.FillMisses, rp.DigestMismatches, rp.QueueDrops)
	}
	for _, row := range r.Host.Ramp {
		fmt.Fprintf(w, "  ramp: offered=%.1f achieved=%.1f p99=%.4fs errors=%d\n",
			row.OfferedRPS, row.AchievedRPS, row.P99Seconds, row.Errors)
	}
	switch {
	case r.Host.KneeRPS > 0:
		fmt.Fprintf(w, "  knee: %.1f req/s\n", r.Host.KneeRPS)
	case r.Host.Saturated != nil && !*r.Host.Saturated:
		fmt.Fprintf(w, "  knee: none (no offered rate achieved 90%%)\n")
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //emx:orderinvariant collecting keys to sort
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Collector aggregates per-request outcomes into the Traffic and SLO
// blocks. Safe for concurrent Record calls.
type Collector struct {
	mu  sync.Mutex
	eps map[string]*epAgg
}

type epAgg struct {
	issued, ok, errs, shed uint64
	statuses               map[int]uint64
	sum, xor               uint64
	hist                   *metrics.Histogram
}

// NewCollector builds an empty collector.
func NewCollector() *Collector {
	return &Collector{eps: map[string]*epAgg{}}
}

// Record accounts one completed request. status 0 (with err non-nil)
// means the request failed below HTTP — every candidate node and
// retry exhausted. seconds is the client-observed latency.
func (c *Collector) Record(endpoint string, status int, body []byte, seconds float64, err error) {
	h := uint64(0)
	if err == nil && status >= 200 && status < 300 {
		h = bodyHash(endpoint, body)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := c.eps[endpoint]
	if agg == nil {
		agg = &epAgg{
			statuses: map[int]uint64{},
			hist:     metrics.NewHistogram(metrics.DefLatencyBuckets),
		}
		c.eps[endpoint] = agg
	}
	agg.issued++
	agg.statuses[status]++
	agg.hist.Observe(seconds)
	switch {
	case err != nil || status >= 400:
		agg.errs++
		if status == 503 {
			agg.shed++
		}
	default:
		agg.ok++
		agg.sum += h
		agg.xor ^= h
	}
}

// bodyHash canonicalizes a 2xx response body and hashes it. Run
// responses carry a "source" field (executed/cache/coalesced) that
// legitimately varies with timing; it is stripped before hashing so
// the digest sees only the simulation's deterministic content.
func bodyHash(endpoint string, body []byte) uint64 {
	if endpoint == "/v1/run" {
		var m map[string]any
		if err := json.Unmarshal(body, &m); err == nil {
			delete(m, "source")
			if b, err := json.Marshal(m); err == nil { // sorted keys
				body = b
			}
		}
	}
	h := fnv.New64a()
	h.Write([]byte(endpoint))
	h.Write([]byte{0})
	h.Write(body)
	return h.Sum64()
}

// Traffic assembles the deterministic traffic block.
func (c *Collector) Traffic() Traffic {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := Traffic{Endpoints: map[string]*EndpointTraffic{}}
	for _, ep := range sortedKeys(c.eps) {
		agg := c.eps[ep]
		t := &EndpointTraffic{
			Issued:   agg.issued,
			OK:       agg.ok,
			Errors:   agg.errs,
			Shed:     agg.shed,
			Statuses: map[string]uint64{},
			Digest:   fmt.Sprintf("%016x-%016x", agg.sum, agg.xor),
		}
		for code, n := range agg.statuses { //emx:orderinvariant map[string] marshals sorted
			t.Statuses[strconv.Itoa(code)] = n
		}
		out.Endpoints[ep] = t
		out.Issued += agg.issued
		out.OK += agg.ok
		out.Errors += agg.errs
		out.Shed += agg.shed
	}
	return out
}

// SLO assembles the per-endpoint latency/error summary from the
// collector's histograms.
func (c *Collector) SLO() map[string]SLORow {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]SLORow{}
	for _, ep := range sortedKeys(c.eps) {
		agg := c.eps[ep]
		row := SLORow{
			P50Seconds: agg.hist.Quantile(0.50),
			P95Seconds: agg.hist.Quantile(0.95),
			P99Seconds: agg.hist.Quantile(0.99),
		}
		if agg.issued > 0 {
			row.ErrorRate = float64(agg.errs) / float64(agg.issued)
		}
		out[ep] = row
	}
	return out
}

// Counts returns total issued and errored requests so far.
func (c *Collector) Counts() (issued, errs uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, agg := range c.eps { //emx:orderinvariant summing counters
		issued += agg.issued
		errs += agg.errs
	}
	return issued, errs
}
