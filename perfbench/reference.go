package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// Host-speed references. The shared host this benchmark runs on changes
// speed by a fifth or more over minutes, which moves every wall time of
// a run together. So an untraced run also times, between its measured
// windows, a reference that does the same kind of work as the measured
// layer but runs none of the repository's code, and reports each timing
// scaled to the reference host speed:
//
//	reported = measured × nominal ÷ median(reference bursts of the run)
//
// and each rate divided by the same factor (figures, which reports
// mean panel times, divides by the mean burst instead). A change to the
// program moves the measured work and not the reference, so it shows in
// full; a slower hour moves both, and cancels. The raw values are kept
// in the detail block. Over 30 s windows on a 2-vCPU host, scaling cut
// the quartile spread of the serve-hit median from 15% to 5% and of the
// 6b panel time from 14% to 7%.
const (
	// httpRefNominalMS is the reference host's median latency of one
	// httpRef request with two clients back to back.
	httpRefNominalMS = 0.125
	// simRefNominalUS is the reference host's time per simRef event
	// with one simulation per worker running at once.
	simRefNominalUS = 1.5
	// httpRefBurst is the number of requests in one httpRef burst.
	httpRefBurst = 1000
)

// refClock collects one reference's burst times over a run.
type refClock struct {
	nominal float64 // a burst's time on the reference host
	times   []float64
}

func (c *refClock) add(t float64) { c.times = append(c.times, t) }

// factor is nominal ÷ the median burst: a time measured on this host
// times factor is the time at the reference host speed.
func (c *refClock) factor() float64 { return ratio(c.nominal, median(c.times)) }

// refBody is what the reference backend encodes for every request: a
// flat record shaped like a /v1/run response.
type refBody struct {
	Key             string  `json:"key"`
	Source          string  `json:"source"`
	Workload        string  `json:"workload"`
	P               int     `json:"p"`
	H               int     `json:"h"`
	SimN            int     `json:"sim_n"`
	PaperN          int     `json:"paper_n"`
	MakespanCycles  uint64  `json:"makespan_cycles"`
	MakespanSeconds float64 `json:"makespan_seconds"`
	CommMeanCycles  float64 `json:"comm_mean_cycles"`
	ComputePct      float64 `json:"compute_pct"`
	OverheadPct     float64 `json:"overhead_pct"`
	CommPct         float64 `json:"comm_pct"`
	SwitchPct       float64 `json:"switch_pct"`
	Switches        uint64  `json:"switches"`
}

// httpRef is the serving reference: a two-hop HTTP path built from the
// standard library alone — a forwarding front server and a backend that
// JSON-encodes a fixed record — on loopback listeners of its own. It
// shares the host, the Go runtime and the kernel's network stack with
// the serving lab but none of the repository's code, so its speed moves
// with the host and never with a change to the program.
type httpRef struct {
	url     string
	servers []*http.Server
	client  *http.Client
}

func startHTTPRef(conns int) (*httpRef, error) {
	r := &httpRef{client: newHTTPClient(conns)}
	var lns []net.Listener
	for range 2 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, prev := range lns {
				prev.Close()
			}
			return nil, fmt.Errorf("listening: %w", err)
		}
		lns = append(lns, ln)
	}
	body := refBody{
		Key: "ref/bitonic/p16/h4/n1024/s1", Source: "cached", Workload: "bitonic",
		P: 16, H: 4, SimN: 1024, PaperN: 1 << 20, MakespanCycles: 123456,
		MakespanSeconds: 0.0061728, CommMeanCycles: 87.5, ComputePct: 41.25,
		OverheadPct: 12.5, CommPct: 38.75, SwitchPct: 7.5, Switches: 4321,
	}
	backend := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		b, _ := json.MarshalIndent(body, "", "  ")
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(b, '\n'))
	})
	backURL := "http://" + lns[1].Addr().String()
	fwd := newHTTPClient(conns)
	front := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		in, err := io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		status, out, err := post(fwd, backURL+req.URL.Path, in)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(out)
	})
	for i, h := range []http.Handler{front, backend} {
		hs := &http.Server{Handler: h}
		r.servers = append(r.servers, hs)
		go hs.Serve(lns[i])
	}
	r.url = "http://" + lns[0].Addr().String() + "/ref"
	return r, nil
}

// burst sends httpRefBurst requests from clients back to back and adds
// their median latency in ms to c; it fails if any request does.
func (r *httpRef) burst(c *refClock, clients int) error {
	req := []byte(`{"workload":"bitonic","p":16,"h":4}`)
	lat, oks := closedLoop(clients, time.Now().Add(time.Minute), httpRefBurst, func(int) bool {
		status, _, err := post(r.client, r.url, req)
		return err == nil && status == http.StatusOK
	})
	for _, ok := range oks {
		if !ok {
			return fmt.Errorf("HTTP reference request failed")
		}
	}
	c.add(median(ms(lat)))
	return nil
}

// interleave runs work in windows of at most window until stop, with a
// reference burst before each.
func interleave(stop time.Time, window time.Duration, burst func() error, work func(end time.Time)) error {
	for time.Now().Before(stop) {
		if err := burst(); err != nil {
			return err
		}
		end := time.Now().Add(window)
		if end.After(stop) {
			end = stop
		}
		work(end)
	}
	return nil
}

func (r *httpRef) close() {
	for _, hs := range r.servers {
		hs.Close()
	}
	r.client.CloseIdleConnections()
}
