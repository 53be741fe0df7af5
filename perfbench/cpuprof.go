package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the layers CPU samples are charged to; their shares sum
// to 100%. Each is reported as cpu.<layer>_pct.
var cpuLayers = []string{
	"sim", "core", "network", "proc", "apps", "harness", "labd", "service",
	"json", "cluster", "http", "gen", "gc", "other",
}

// cpuShares is a CPU profile reduced to per-layer percentages.
type cpuShares struct {
	samples int64
	pct     map[string]float64
	handoff float64 // % of all samples: runtime handoff under core frames
}

// profileCPU runs fn under the runtime CPU profiler and attributes its
// samples to layers.
func profileCPU(fn func() error) (*cpuShares, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	stacks, weights, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	return attribute(stacks, weights), nil
}

// attribute charges each sample to a layer (see classify).
func attribute(stacks [][]string, weights []int64) *cpuShares {
	by := map[string]int64{}
	var total, handoff int64
	for i, st := range stacks {
		layer, h := classify(st)
		by[layer] += weights[i]
		total += weights[i]
		if h {
			handoff += weights[i]
		}
	}
	s := &cpuShares{samples: total, pct: map[string]float64{}}
	for _, l := range cpuLayers {
		if total > 0 {
			s.pct[l] = 100 * float64(by[l]) / float64(total)
		} else {
			s.pct[l] = 0
		}
	}
	if total > 0 {
		s.handoff = 100 * float64(handoff) / float64(total)
	}
	return s
}

// set stores the shares as cpu.* metrics.
func (s *cpuShares) set(r *report) {
	for _, l := range cpuLayers {
		r.set("cpu."+l+"_pct", s.pct[l])
	}
	r.set("cpu.core_handoff_pct", s.handoff)
	r.set("cpu.samples", float64(s.samples))
}

// classify charges one stack (leaf first) to the innermost frame that
// names a layer: an emx/internal package, encoding/json, the net/http
// stack, the benchmark itself (gen), or the garbage collector. Runtime
// work such as a channel handoff thereby lands on the layer that caused
// it. handoff reports a core sample whose leafward frames include
// runtime channel or scheduler functions.
func classify(stack []string) (layer string, handoff bool) {
	sawHandoff := false
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l, l == "core" && sawHandoff
		}
		if handoffFuncs[fn] {
			sawHandoff = true
		}
	}
	return "other", false
}

// handoffFuncs are the runtime entry points of a goroutine handoff:
// channel operations, parking, and waking.
var handoffFuncs = map[string]bool{
	"runtime.chansend": true, "runtime.chansend1": true,
	"runtime.chanrecv": true, "runtime.chanrecv1": true, "runtime.chanrecv2": true,
	"runtime.selectgo": true, "runtime.send": true, "runtime.recv": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.park_m": true, "runtime.mcall": true, "runtime.schedule": true,
	"runtime.findRunnable": true, "runtime.wakep": true, "runtime.runqput": true,
}

// gcPrefixes name the garbage collector's runtime functions.
var gcPrefixes = []string{
	"runtime.gc", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.scanframeworker", "runtime.greyobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked)",
	"runtime.(*mspan).sweep", "runtime.bgscavenge", "runtime.wbBuf",
	"runtime.(*mheap).reclaim", "runtime.findObject", "runtime.markBits",
}

// internalLayers maps emx/internal packages onto layers. Packages not
// listed (metrics, obs, ...) are helpers: their frames are neutral, so
// a counter bump lands on the layer that made it.
var internalLayers = map[string]string{
	"sim": "sim", "core": "core", "thread": "core",
	"network": "network", "packet": "network",
	"proc": "proc", "memory": "proc",
	"apps/bitonic": "apps", "apps/fft": "apps", "apps/spmv": "apps",
	"harness": "harness", "labd": "labd", "labd/service": "service",
	"cluster": "cluster", "ring": "cluster",
}

// layerOf names the layer one function belongs to, or "" when the
// frame is neutral (runtime internals, sync, bufio, ...).
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "emx/internal/"):
		return internalLayers[strings.TrimPrefix(pkgOf(fn), "emx/internal/")]
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "emx/perfbench."): // the latter under go test
		return "gen"
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	case strings.HasPrefix(fn, "net/http."), strings.HasPrefix(fn, "net."),
		strings.HasPrefix(fn, "internal/poll."), strings.HasPrefix(fn, "syscall."):
		return "http"
	}
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return "gc"
		}
	}
	return ""
}

// pkgOf returns the import path of a fully qualified function name:
// everything before the first '.' after the last '/'.
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// parseProfile decodes a gzipped profile.proto CPU profile into one
// stack of function names per sample (leaf first, inlined frames
// expanded) and the sample's count.
func parseProfile(gz []byte) (stacks [][]string, weights []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	type sampleRec struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sampleRec
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sampleRec
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, s := range samples {
		var st []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					st = append(st, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
		weights = append(weights, s.count)
	}
	return stacks, weights, nil
}

// appendVarints appends a repeated integer field, packed (b != nil) or
// not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errBadProto = errors.New("malformed protobuf")

// walk visits the fields of one protobuf message: varints arrive as v,
// length-delimited fields as b (nil for varints). Fixed-width fields
// are skipped.
func walk(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errBadProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errBadProto
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errBadProto
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errBadProto
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errBadProto
			}
			buf = buf[4:]
		default:
			return errBadProto
		}
	}
	return nil
}
