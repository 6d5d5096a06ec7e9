package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rlpm/internal/core"
	"rlpm/internal/serve"
	"rlpm/internal/wire"
)

// syncBuffer is a goroutine-safe stderr for a pmserve running in the
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

// writeCheckpoint saves a one-cluster, three-level policy to a fresh file
// and returns its path, so pmserve loads a policy instead of training one.
func writeCheckpoint(t *testing.T) string {
	t.Helper()
	cfg := core.DefaultConfig()
	table := make([][]float64, cfg.State.States(3))
	for s := range table {
		table[s] = make([]float64, 3)
	}
	model, err := serve.NewModel(cfg, core.Snapshot{State: cfg.State, Tables: [][][]float64{table}})
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	path := filepath.Join(t.TempDir(), "policy.ckpt")
	if _, err := serve.SaveCheckpoint(path, model.Snapshot()); err != nil {
		t.Fatalf("save checkpoint: %v", err)
	}
	return path
}

// TestExitCodes pins pmserve's exit status on bad command lines and on
// servers that cannot be built.
func TestExitCodes(t *testing.T) {
	ckpt := writeCheckpoint(t)
	corrupt := filepath.Join(t.TempDir(), "corrupt.ckpt")
	if err := os.WriteFile(corrupt, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		args    []string
		want    int
		wantErr string // in stderr
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"help", []string{"-h"}, 0, "Usage of pmserve"},
		{"unknown backend", []string{"-addr", "127.0.0.1:0", "-checkpoint", ckpt, "-backend", "bogus"}, 1, `unknown backend "bogus"`},
		{"unknown backend without checkpoint", []string{"-addr", "127.0.0.1:0", "-backend", "bogus"}, 1, `unknown backend "bogus"`},
		{"learn on hw", []string{"-addr", "127.0.0.1:0", "-checkpoint", ckpt, "-learn", "-backend", "hw"}, 1, "-learn requires the sw backend"},
		{"corrupt checkpoint", []string{"-addr", "127.0.0.1:0", "-checkpoint", corrupt}, 1, "corrupt checkpoint"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if got := run(context.Background(), c.args, &stderr); got != c.want || !strings.Contains(stderr.String(), c.wantErr) {
				t.Fatalf("exit %d, want %d with %q in stderr:\n%s", got, c.want, c.wantErr, stderr.String())
			}
		})
	}
}

// TestServesUntilCancelled runs pmserve over a checkpoint: it announces
// both listeners on stderr, serves a JSON and a binary create, and exits 0
// once its context is cancelled, leaving the drain's final checkpoint.
func TestServesUntilCancelled(t *testing.T) {
	ckpt := writeCheckpoint(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-addr", "127.0.0.1:0", "-listen-bin", "127.0.0.1:0", "-checkpoint", ckpt}, &stderr)
	}()

	// The announced addresses.
	var httpAddr, binAddr string
	for deadline := time.Now().Add(10 * time.Second); httpAddr == "" || binAddr == ""; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("pmserve announced no listeners; stderr:\n%s", stderr.String())
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
	if !strings.Contains(stderr.String(), "loaded checkpoint "+ckpt) {
		t.Fatalf("pmserve did not load the checkpoint; stderr:\n%s", stderr.String())
	}
	// The checkpoint left after exit must be the drain's own.
	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
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
	case <-time.After(15 * time.Second):
		t.Fatal("pmserve did not exit after its context was cancelled")
	}
	if _, err := serve.LoadModel(ckpt, core.DefaultConfig()); err != nil {
		t.Fatalf("the drain's final checkpoint: %v", err)
	}
}
