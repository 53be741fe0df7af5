// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed, checks every output it produces, and prints one
// JSON result line: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a traced run. README.md describes the workloads,
// the metrics and how they relate.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(b *bench) error{
	"figures":    runFigures,
	"serve-hit":  runServeHit,
	"serve-cold": runServeCold,
}

// bench is one run's configuration and its report.
type bench struct {
	seed    int64
	seconds time.Duration
	traced  bool
	logw    io.Writer
	rep     *report
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.logw, "perfbench: "+format+"\n", args...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: figures, serve-hit, or serve-cold")
		seed     = fs.Int64("seed", 1, "input seed (>= 1)")
		seconds  = fs.Int("seconds", 20, "how long to measure")
		trace    = fs.Int("trace", 0, "1: a traced run reporting per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seed < 1 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {%s}, --seed >= 1, --seconds >= 1, --trace 0|1\n",
			strings.Join(sortedKeys(workloads), ","))
		return 2
	}
	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		logw:    stderr,
		rep:     newReport(),
	}
	if err := fn(b); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if b.traced {
		defs = perLayer
	} else {
		b.rep.set("peak_rss_mb", peakRSSMiB())
	}
	ms, err := b.rep.metrics(defs)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.rep.detail["host"] = hostBlock(*workload, *seed)
	b.rep.logErrors(stderr)
	correct := b.rep.failed == 0 && b.rep.attempted > 0
	w := bufio.NewWriter(stdout)
	detail, _ := json.Marshal(b.rep.detail)
	fmt.Fprintf(w, "%s\n", detail)
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, b.rep.attempted, b.rep.failed, ms})
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// hostBlock is what the result was measured on, recorded beside it:
// cores, GOMAXPROCS, Go version, the commit the benchmark was built
// from (run.sh passes it when the checkout is a git repository; ""
// otherwise), the workload and the seed.
func hostBlock(workload string, seed int64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"workload":   workload,
		"seed":       seed,
		"commit":     os.Getenv("PERFBENCH_COMMIT"),
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
