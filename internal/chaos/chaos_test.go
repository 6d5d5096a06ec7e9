package chaos

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"rlpm/internal/leaktest"
)

// echoServer accepts connections and echoes bytes until closed.
func echoServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		wg.Wait()
	}
}

// TestZeroConfigByteTransparent pins the package's core discipline: with
// all rates zero, the proxied stream is bit-identical to a direct
// connection and no fault counters move.
func TestZeroConfigByteTransparent(t *testing.T) {
	defer leaktest.Check(t)()
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	msg := make([]byte, 64<<10)
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	go func() {
		c.Write(msg)
	}()
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("zero-rate proxy altered the byte stream")
	}
	// The proxy counts a chunk once its write returns, so the client can
	// read the last chunk before it is counted: wait until both counters
	// reach the message length, then hold them to it exactly.
	want := uint64(len(msg))
	st := p.Stats()
	for deadline := time.Now().Add(5 * time.Second); (st.BytesUp < want || st.BytesDown < want) && time.Now().Before(deadline); st = p.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Drops+st.Stalls+st.Partials+st.Corrupts+st.Delays != 0 {
		t.Fatalf("zero-rate proxy injected faults: %+v", st)
	}
	if st.BytesUp != want || st.BytesDown != want {
		t.Fatalf("byte accounting %+v, want %d each way", st, want)
	}
}

// TestDropSeversConnection proves a certain drop kills the connection on
// the first forwarded chunk and is counted.
func TestDropSeversConnection(t *testing.T) {
	defer leaktest.Check(t)()
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr, Config{Seed: 2, DropRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := c.Read(one[:]); err == nil {
		t.Fatal("read succeeded through a DropRate=1 proxy")
	}
	if st := p.Stats(); st.Drops == 0 {
		t.Fatalf("no drop counted: %+v", st)
	}
}

// TestCorruptFlipsExactlyOneBit proves corruption perturbs the stream
// without changing its length, and is deterministic for a given seed.
func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	defer leaktest.Check(t)()
	addr, stop := echoServer(t)
	defer stop()

	run := func(seed uint64) []byte {
		p, err := NewProxy(addr, Config{Seed: seed, CorruptRate: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		msg := []byte("the quick brown fox jumps over the lazy dog")
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatalf("read back: %v", err)
		}
		return got
	}

	msg := []byte("the quick brown fox jumps over the lazy dog")
	got := run(7)
	if bytes.Equal(got, msg) {
		t.Fatal("CorruptRate=1 proxy left the stream untouched")
	}
	diffBits := 0
	for i := range msg {
		for b := 0; b < 8; b++ {
			if (got[i]^msg[i])>>b&1 == 1 {
				diffBits++
			}
		}
	}
	// One chunk each way, one bit flipped per corrupt site: at most 2.
	if diffBits == 0 || diffBits > 2 {
		t.Fatalf("%d bits flipped, want 1 or 2", diffBits)
	}
}

// TestProxyCloseSeversActiveConns proves Close unblocks in-flight reads
// and reaps all pump goroutines (the deferred leak check enforces it).
func TestProxyCloseSeversActiveConns(t *testing.T) {
	defer leaktest.Check(t)()
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("connection survived proxy close")
	}
}
