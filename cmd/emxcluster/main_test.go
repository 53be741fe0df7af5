package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"emx/internal/cluster"
	"emx/internal/labd/service"
)

// hugeScale clamps panel sizes to the minimum grid for fast tests.
const hugeScale = 1 << 20

// runGateway drives run() with a test starter that serves the gateway
// from an httptest server instead of binding a socket, returning the
// base URL to fn.
func runGateway(t *testing.T, args []string, fn func(base string)) (int, string) {
	t.Helper()
	var stderr bytes.Buffer
	code := run(args, &stderr, func(addr string, h http.Handler, g *cluster.Gateway, m *cluster.Membership) int {
		ts := httptest.NewServer(h)
		defer ts.Close()
		fn(ts.URL)
		return 0
	})
	return code, stderr.String()
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{},                      // -nodes required
		{"-nodes", " , "},       // blank list
		{"-nodes", "host:8484"}, // missing scheme
		{"-nodes", "ftp://h:1"}, // wrong scheme
		{"-nodes", "http://h:1", "-retries", "-1"},
		{"-nodes", "http://h:1", "-scale", "0"},
		{"-nodes", "http://h:1", "-probe", "-1s"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		var stderr bytes.Buffer
		code := run(args, &stderr, func(string, http.Handler, *cluster.Gateway, *cluster.Membership) int {
			t.Errorf("args %v reached the server", args)
			return 0
		})
		if code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
		if stderr.Len() == 0 {
			t.Errorf("args %v rejected silently", args)
		}
	}
}

// TestSplitNodes: -nodes goes through ring.ParseMembers, so blanks,
// empty entries and trailing slashes do not change the member set.
func TestSplitNodes(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		dead := httptest.NewServer(nil)
		dead.Close()
		urls = append(urls, dead.URL)
	}
	var got []string
	code := run([]string{"-probe", "0", "-nodes", " " + urls[1] + "/, ," + urls[0] + " ,"}, io.Discard,
		func(_ string, _ http.Handler, _ *cluster.Gateway, m *cluster.Membership) int {
			got = m.Members()
			return 0
		})
	sort.Strings(urls)
	if code != 0 || !reflect.DeepEqual(got, urls) {
		t.Fatalf("exit %d, members %v, want %v", code, got, urls)
	}
}

// TestGatewayServesClusterAPI wires two real emxd nodes behind the CLI
// and checks the full surface: figures route and match a direct node,
// status reports the membership, metrics expose the counters.
func TestGatewayServesClusterAPI(t *testing.T) {
	srv1 := service.New(service.Options{Scale: hugeScale, Seed: 1})
	ts1 := httptest.NewServer(srv1.Handler())
	defer func() { ts1.Close(); srv1.Close() }()
	srv2 := service.New(service.Options{Scale: hugeScale, Seed: 1})
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() { ts2.Close(); srv2.Close() }()

	body, _ := json.Marshal(service.FigureRequest{Fig: "6a", Scale: hugeScale, Seed: 1})
	direct, err := http.Post(ts1.URL+"/v1/figure", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(direct.Body)
	direct.Body.Close()

	args := []string{
		"-nodes", ts1.URL + "," + ts2.URL,
		"-probe", "0", "-scale", "1048576", "-local",
	}
	code, stderr := runGateway(t, args, func(base string) {
		resp, err := http.Post(base+"/v1/figure", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("figure via gateway: HTTP %d: %s", resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("gateway panel differs from direct node panel")
		}
		if n := resp.Header.Get(cluster.NodeHeader); n == "" {
			t.Error("gateway response missing node header")
		}

		sresp, err := http.Get(base + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		var st cluster.ClusterStatus
		if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		sresp.Body.Close()
		if st.Members != 2 || st.Healthy != 2 || st.DefaultScale != hugeScale {
			t.Fatalf("cluster status %+v", st)
		}

		mresp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		mb, _ := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		if !strings.Contains(string(mb), "emxcluster_attempts_total") {
			t.Error("gateway /metrics missing routing counters")
		}
	})
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
}

// TestLocalFallbackFlag: with -local and every node dead, the gateway
// still answers by running in-process.
func TestLocalFallbackFlag(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()

	body, _ := json.Marshal(service.FigureRequest{Fig: "6a", Scale: hugeScale, Seed: 1})
	args := []string{
		"-nodes", dead.URL,
		"-probe", "0", "-retries", "0", "-scale", "1048576", "-local",
	}
	code, stderr := runGateway(t, args, func(base string) {
		resp, err := http.Post(base+"/v1/figure", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("local fallback: HTTP %d: %s", resp.StatusCode, b)
		}
		if n := resp.Header.Get(cluster.NodeHeader); n != cluster.LocalNode {
			t.Fatalf("answered by %q, want %q", n, cluster.LocalNode)
		}
	})
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
}
