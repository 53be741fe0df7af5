package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef names one reported metric and its unit. The two catalogues
// below are the benchmark's contract with BENCHMARK.json, which lists
// the same names in the same order (metrics_test.go checks it).
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run prints. Every workload reports every
// metric; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"primary_ms", "ms"},
	{"secondary_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer is what a traced run prints, named by module. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	// harness / labd sweep
	{"labd.exec", "count"},
	{"labd.exec_distinct", "count"},
	{"labd.useful_exec_ratio", "ratio"},
	{"labd.worker_busy_ratio", "ratio"},
	{"harness.point_s_p50", "s"},
	{"harness.point_s_max", "s"},
	// sim
	{"sim.events", "count"},
	{"sim.cycles", "count"},
	{"sim.ns_per_event", "ns"},
	{"cpu.sim_pct", "%"},
	// core
	{"core.switch.remote_read", "count"},
	{"core.switch.iter_sync", "count"},
	{"core.switch.thread_sync", "count"},
	{"core.dispatches", "count"},
	{"core.spills", "count"},
	{"cpu.core_pct", "%"},
	{"cpu.core_handoff_pct", "%"},
	// network / proc
	{"network.packets", "count"},
	{"network.hops", "count"},
	{"network.queue_delay_cycles", "count"},
	{"proc.serviced_dma", "count"},
	{"cpu.network_pct", "%"},
	{"cpu.proc_pct", "%"},
	// apps, harness
	{"cpu.apps_pct", "%"},
	{"cpu.harness_pct", "%"},
	// labd / service
	{"service.pre_write_ms_p50", "ms"},
	{"service.encode_ms_p50", "ms"},
	{"service.encode_ms_p99", "ms"},
	{"service.resp_bytes_mean", "B"},
	{"cpu.service_pct", "%"},
	{"cpu.json_pct", "%"},
	// labd (serving)
	{"labd.cache_hits", "count"},
	{"labd.coalesced", "count"},
	{"labd.filled", "count"},
	{"labd.shed", "count"},
	{"labd.exec_ms_mean", "ms"},
	{"labd.queue_wait_ms", "ms"},
	{"cpu.labd_pct", "%"},
	// replication
	{"repl.pushes", "count"},
	{"repl.push_errors", "count"},
	{"repl.stores", "count"},
	{"repl.queue_drops", "count"},
	{"repl.fills", "count"},
	{"repl.fill_misses", "count"},
	{"repl.digest_mismatches", "count"},
	{"repl.put_handler_ms", "ms"},
	{"repl.get_handler_ms", "ms"},
	// cluster
	{"gateway.handler_ms_p50", "ms"},
	{"gateway.self_ms", "ms"},
	{"cluster.retries", "count"},
	{"cluster.failovers", "count"},
	{"cluster.hedges", "count"},
	{"cpu.cluster_pct", "%"},
	// HTTP transport
	{"http.gateway_conns_per_1k", "count"},
	{"http.node_conns_per_1k", "count"},
	{"cpu.http_pct", "%"},
	// Go runtime
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_cycles", "count"},
	{"cpu.gc_pct", "%"},
	{"cpu.other_pct", "%"},
	{"cpu.samples", "count"},
	// load generator
	{"gen.primary_p50_ms", "ms"},
	{"gen.primary_tail_ms", "ms"},
	{"gen.secondary_p50_ms", "ms"},
	{"gen.secondary_tail_ms", "ms"},
	{"gen.knee_rps", "1/s"},
	{"gen.late_p99_ms", "ms"},
	{"gen.late_max_ms", "ms"},
	{"cpu.gen_pct", "%"},
	// tracing
	{"trace.overhead_pct", "%"},
}

// report collects one run's outcome: operation counts, metric values,
// and a detail block (sample counts, tail levels, host) printed on the
// line before the result.
type report struct {
	attempted, failed int64
	values            map[string]float64
	detail            map[string]any
	errs              []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, detail: map[string]any{}}
}

// op counts one checked operation; a failed one is remembered (the
// first few, for the error log) and counts against the run.
func (r *report) op(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// atRefSpeed scales the measured end-to-end values of names to the
// reference host speed (see refClock): times by factor, the rate
// throughput_per_s by 1/factor. The raw values and the factor go to the
// detail block.
func (r *report) atRefSpeed(factor float64, names ...string) {
	for _, name := range names {
		v := r.values[name]
		r.detail["raw."+name] = v
		r.detail["ref_factor."+name] = factor
		if name == "throughput_per_s" {
			r.values[name] = ratio(v, factor)
		} else {
			r.values[name] = v * factor
		}
	}
}

// timing records the latency series of one op class (primary or
// secondary): its median as the end-to-end <class>_ms, median and
// tail as the per-layer gen.<class>_p50_ms and gen.<class>_tail_ms, and
// both with the sample count and the tail's level in the detail. Tails
// are not end-to-end metrics: on a shared 2-vCPU host, host scheduling
// stalls alone moved the p99 of the 500 req/s hit stream between 2 and
// 98 ms from run to run.
func (r *report) timing(class string, s summary) {
	r.set(class+"_ms", s.P50)
	r.set("gen."+class+"_p50_ms", s.P50)
	r.set("gen."+class+"_tail_ms", s.Tail)
	r.detail[class+"_ms.n"] = s.N
	r.detail[class+"_tail_ms"] = s.Tail
	r.detail[class+"_tail_ms.q"] = s.TailQ
}

// metrics returns the catalogue's metrics with their units, or an error
// naming any the run did not measure.
func (r *report) metrics(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// logErrors writes the remembered failures to w.
func (r *report) logErrors(w io.Writer) {
	for _, e := range r.errs {
		fmt.Fprintln(w, "perfbench: mismatch:", e)
	}
	if n := r.failed - int64(len(r.errs)); n > 0 {
		fmt.Fprintf(w, "perfbench: ... and %d more\n", n)
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
