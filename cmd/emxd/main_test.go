package main

import (
	"bytes"
	"context"
	"io"
	"log"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"emx/internal/labd"
	"emx/internal/labd/service"
)

func TestFlagValidation(t *testing.T) {
	peers := "http://a:1,http://b:2"
	cases := [][]string{
		{"-queue", "0"},
		{"-cache", "0"},
		{"-scale", "0"},
		{"-workers", "-1"},
		{"-replicas", "2"}, // no -self, no -peers
		{"-replicas", "2", "-self", "http://a:1"},                         // no -peers
		{"-replicas", "2", "-peers", peers},                               // no -self
		{"-replicas", "2", "-self", "http://a:1", "-peers", "http://a:1"}, // one peer
		{"-replicas", "2", "-self", "http://c:3", "-peers", peers},        // self not a peer
		{"-self", "http://c:3", "-peers", peers},                          // ... even unreplicated
		{"-self", "http://a:1,http://b:2", "-peers", peers},               // two selves
		{"-not-a-flag"},
	}
	for _, args := range cases {
		var stderr bytes.Buffer
		if code := run(args, &stderr); code != 2 {
			t.Errorf("args %q: exit %d, want 2", args, code)
		}
		if stderr.Len() == 0 {
			t.Errorf("args %q rejected silently", args)
		}
	}
}

// TestPeerFlagsAreNormalized: -self and -peers written with blanks,
// empty entries and trailing slashes reach the replicator in the form
// emxcluster gives its -nodes, so self is found among the peers.
func TestPeerFlagsAreNormalized(t *testing.T) {
	var stderr bytes.Buffer
	_, opts, ok := parseFlags([]string{
		"-replicas", "2",
		"-self", " http://b:2/ ",
		"-peers", " http://a:1/, ,http://b:2/ ,",
	}, &stderr)
	if !ok {
		t.Fatalf("rejected: %s", stderr.String())
	}
	r := opts.Replication
	if r.Self != "http://b:2" || !reflect.DeepEqual(r.Peers, []string{"http://a:1", "http://b:2"}) {
		t.Fatalf("self %q, peers %q", r.Self, r.Peers)
	}
}

// TestListenFailureExitsOne: a taken address ends run with exit 1 and a
// logged error instead of killing the process.
func TestListenFailureExitsOne(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var stderr bytes.Buffer
	if code := run([]string{"-addr", ln.Addr().String(), "-scale", "1048576"}, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "address already in use") {
		t.Fatalf("stderr %q does not name the listen error", stderr.String())
	}
}

// TestServeDoesNotWaitForSimulations: once its context ends, serve
// returns after the HTTP shutdown even though the only worker holds a
// job that never finishes.
func TestServeDoesNotWaitForSimulations(t *testing.T) {
	srv := service.New(service.Options{Scale: 1 << 20, Sched: labd.Options{Workers: 1}})
	hold, started := make(chan struct{}), make(chan struct{})
	go srv.Scheduler().Exec(context.Background(), func() error {
		close(started)
		<-hold
		return nil
	})
	<-started
	defer func() {
		close(hold)
		srv.Close()
	}()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() { done <- serve(ctx, "127.0.0.1:0", srv, log.New(io.Discard, "", 0)) }()
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d, want 0", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve still running 5 s after its context ended")
	}
}
