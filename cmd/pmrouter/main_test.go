package main

import (
	"bytes"
	"context"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rlpm/internal/core"
	"rlpm/internal/serve"
	"rlpm/internal/wire"
)

// syncBuffer is a goroutine-safe stderr for a pmrouter running in the
// background.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// deadAddr returns a loopback address with no listener behind it.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestExitCodes pins pmrouter's exit status on bad command lines and on a
// shard that never comes up.
func TestExitCodes(t *testing.T) {
	dead := deadAddr(t)
	for _, c := range []struct {
		name string
		args []string
		want int
	}{
		{"no shard", []string{"-addr", "127.0.0.1:0"}, 1},
		{"shard without address", []string{"-shard", "s0"}, 2},
		{"shard without binary address", []string{"-shard", "s0=@h"}, 2},
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"shard never healthy", []string{"-addr", "127.0.0.1:0", "-shard", "s0=" + dead + "@" + dead, "-wait-shards", "200ms"}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if got := run(context.Background(), c.args, &stderr); got != c.want {
				t.Fatalf("exit %d, want %d; stderr:\n%s", got, c.want, stderr.String())
			}
		})
	}
}

// TestServesUntilCancelled runs pmrouter over an in-process shard: it
// announces both listeners on stderr, serves a JSON and a binary create,
// and exits 0 once its context is cancelled.
func TestServesUntilCancelled(t *testing.T) {
	cfg := core.DefaultConfig()
	table := make([][]float64, cfg.State.States(3))
	for s := range table {
		table[s] = make([]float64, 3)
	}
	model, err := serve.NewModel(cfg, core.Snapshot{State: cfg.State, Tables: [][][]float64{table}})
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	srv, err := serve.New(model, nil, serve.Config{})
	if err != nil {
		t.Fatalf("shard: %v", err)
	}
	shardHTTP := httptest.NewServer(srv.Handler())
	defer shardHTTP.Close()
	shardBin, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeBin(shardBin) }()
	defer func() {
		srv.Close()
		<-served
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-addr", "127.0.0.1:0", "-listen-bin", "127.0.0.1:0", "-wait-shards", "5s",
			"-shard", "s0=" + shardBin.Addr().String() + "@" + shardHTTP.Listener.Addr().String()}, &stderr)
	}()

	// The announced addresses.
	var httpAddr, binAddr string
	for deadline := time.Now().Add(10 * time.Second); httpAddr == "" || binAddr == ""; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("pmrouter announced no listeners; stderr:\n%s", stderr.String())
		}
		for _, line := range strings.Split(stderr.String(), "\n") {
			if _, a, ok := strings.Cut(line, " on http://"); ok {
				httpAddr, _, _ = strings.Cut(a, " ")
			}
			if _, a, ok := strings.Cut(line, "binary protocol on "); ok {
				binAddr = a
			}
		}
	}

	hc := serve.NewClient("http://" + httpAddr)
	sess, err := hc.CreateSession(ctx, serve.SessionOptions{Seed: 1})
	if err != nil {
		t.Fatalf("JSON create: %v", err)
	}
	if !strings.HasPrefix(sess.ID, "s-") || sess.NumClusters() != 1 {
		t.Fatalf("JSON create answered id %q, %d clusters", sess.ID, sess.NumClusters())
	}
	hc.CloseIdleConnections()
	bc := serve.NewBinClient(binAddr)
	var c serve.BinCaller
	ans, err := c.Call(ctx, bc, &serve.FrontReq{Type: wire.TCreate, Opts: serve.SessionOptions{Seed: 2}})
	bc.Close()
	if err != nil {
		t.Fatalf("binary create: %v", err)
	}
	if ans.Info.Handle == 0 || len(ans.Info.NumLevels) != 1 {
		t.Fatalf("binary create answered %+v", ans.Info)
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit %d after cancel, want 0; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pmrouter did not exit after its context was cancelled")
	}
}
