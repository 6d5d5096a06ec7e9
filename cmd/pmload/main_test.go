package main

import (
	"bytes"
	"context"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rlpm/internal/bench"
	"rlpm/internal/serve"
)

// pmserve stands up an in-process pmserve: a quick-trained policy on the
// HTTP front and a binary listener. It returns the HTTP URL and the
// binary address.
func pmserve(t *testing.T) (string, string) {
	t.Helper()
	opt := bench.DefaultOptions()
	opt.Quick = true
	model, backend, err := bench.TrainedServeModel(bench.ServeOptions{Options: opt})
	if err != nil {
		t.Fatalf("TrainedServeModel: %v", err)
	}
	srv, err := serve.New(model, backend, serve.Config{})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeBin(ln) }()
	t.Cleanup(func() {
		hs.Close()
		ln.Close()
		<-done
		srv.Close()
	})
	return hs.URL, ln.Addr().String()
}

// runPmload runs one invocation and returns its exit status and output.
func runPmload(ctx context.Context, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(ctx, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRemoteModes drives pmload's remote mode over both transports, and
// a binary address with no listener behind it.
func TestRemoteModes(t *testing.T) {
	url, binAddr := pmserve(t)
	ctx := context.Background()
	for _, args := range [][]string{
		{"-addr", url, "-devices", "4", "-periods", "30"},
		{"-addr", url, "-proto", "bin", "-bin-addr", binAddr, "-devices", "4", "-periods", "30"},
	} {
		code, stdout, stderr := runPmload(ctx, args...)
		if code != 0 {
			t.Fatalf("pmload %q exited %d: %s", args, code, stderr)
		}
		if !strings.Contains(stdout, "decisions=120 ") {
			t.Errorf("pmload %q did not ack 4×30 decisions: %s", args, stdout)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dead := ln.Addr().String()
	ln.Close()
	// The bin client retries a refused dial until its budget or the
	// caller's context runs out; the context bounds the test.
	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	code, _, stderr := runPmload(dctx, "-addr", url, "-proto", "bin", "-bin-addr", dead, "-devices", "2", "-periods", "5")
	if code != 1 || !strings.Contains(stderr, "device 0 open") {
		t.Errorf("pmload against a dead -bin-addr exited %d, want 1 on a device error: %s", code, stderr)
	}
}

// TestUsageErrors pins the exit status of each invocation pmload refuses
// before it runs a fleet.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-addr", "http://127.0.0.1:1", "-proto", "bin"},
		{"-addr", "http://127.0.0.1:1", "-proto", "both"},
		{"-nope"},
		{},
	} {
		if code, _, _ := runPmload(context.Background(), args...); code != 2 {
			t.Errorf("pmload %q exited %d, want 2", args, code)
		}
	}
}

// TestHarnessModes runs every harness mode on a tiny fleet. Each must hold
// its invariants and serve the -epsilon it was given: the 0.2 default, and
// an explicit 0 for greedy sessions.
func TestHarnessModes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"-chaos", "-devices", "2", "-periods", "20"},
			[]string{"chaos: proto=json devices=2 periods=20 epsilon=0.2 ", "chaos: all invariants held"}},
		{[]string{"-chaos", "-devices", "2", "-periods", "20", "-epsilon", "0"},
			[]string{"chaos: proto=json devices=2 periods=20 epsilon=0 ", "chaos: all invariants held"}},
		{[]string{"-shard-chaos", "-devices", "4", "-periods", "20", "-epsilon", "0"},
			[]string{"shard-chaos: proto=json shards=2 devices=4 periods=20 epsilon=0 ", "shard-chaos: all invariants held"}},
		{[]string{"-learn", "-devices", "2", "-periods", "60", "-epsilon", "0"},
			[]string{"learn: devices=2 periods=60 epsilon=0 ", "learn: all invariants held"}},
	} {
		code, stdout, stderr := runPmload(context.Background(), c.args...)
		if code != 0 {
			t.Fatalf("pmload %q exited %d: %s", c.args, code, stderr)
		}
		for _, w := range c.want {
			if !strings.Contains(stdout, w) {
				t.Errorf("pmload %q printed no %q:\n%s", c.args, w, stdout)
			}
		}
	}
}
