// Package chaos is the deterministic network/process fault-injection
// layer for the serving path.
//
// internal/fault made the hardware-policy path breakable on demand; this
// package does the same for the network between serving clients and
// servers. A seeded TCP proxy sits between a client and a live server
// and, per forwarded chunk, may sever the connection, stall, deliver a
// partial write before severing, flip a payload bit, or inject a latency
// spike. The chaos harness runs both wires, binary and HTTP/JSON, through
// the proxy, so one schedule covers both — including the nastiest shape,
// a response severed after the server executed the request, which is what
// forces retries to be deduplicated.
//
// The package follows internal/fault's discipline: every fault site is
// driven by its own internal/rng stream derived from Config.Seed, and a
// zero rate draws no randomness at its site. An all-zero Config is
// byte-transparent — the proxied stream is bit-identical to a direct
// connection (the tests pin this), so resilience machinery can stay wired
// in production paths at zero cost.
//
// Fault *schedules* are deterministic per (seed, connection, direction,
// chunk index); wall-clock interleaving of chunks is not, so end-to-end
// determinism is asserted at the decision level by the chaos harness
// (decisions byte-identical to a fault-free oracle), not at the packet
// level.
package chaos

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rlpm/internal/rng"
)

// Config sets a proxy's per-chunk fault rates.
// All rates are probabilities in [0,1]; a zero rate disables its site
// entirely (no RNG draws). The zero value is byte-transparent.
type Config struct {
	// Seed drives all fault streams; each connection direction gets its
	// own rng stream so schedules are reproducible per connection.
	Seed uint64

	// DropRate is the per-chunk probability the connection is severed
	// before the chunk is forwarded.
	DropRate float64
	// StallRate is the per-chunk probability the pump pauses StallFor
	// before forwarding — long enough to trip client deadlines.
	StallRate float64
	// StallFor is the stall duration; defaults to 50ms.
	StallFor time.Duration
	// PartialWriteRate is the per-chunk probability only a strict prefix
	// of the chunk is forwarded before the connection is severed.
	PartialWriteRate float64
	// CorruptRate is the per-chunk probability one uniformly chosen bit
	// of the chunk is flipped before forwarding (the wire trailer CRC
	// must catch it).
	CorruptRate float64
	// LatencyRate is the per-chunk probability of an added LatencyFor
	// delay before forwarding.
	LatencyRate float64
	// LatencyFor is the injected latency; defaults to 5ms.
	LatencyFor time.Duration
}

func (c Config) withDefaults() Config {
	if c.StallFor <= 0 {
		c.StallFor = 50 * time.Millisecond
	}
	if c.LatencyFor <= 0 {
		c.LatencyFor = 5 * time.Millisecond
	}
	return c
}

// Stats counts the faults a proxy has injected.
type Stats struct {
	Conns     uint64 // connections accepted
	Drops     uint64 // connections severed
	Stalls    uint64
	Partials  uint64
	Corrupts  uint64
	Delays    uint64
	BytesUp   uint64 // client→server bytes forwarded
	BytesDown uint64 // server→client bytes forwarded
}

type stats struct {
	conns, drops, stalls, partials, corrupts, delays atomic.Uint64
	bytesUp, bytesDown                               atomic.Uint64
}

func (s *stats) snapshot() Stats {
	return Stats{
		Conns:     s.conns.Load(),
		Drops:     s.drops.Load(),
		Stalls:    s.stalls.Load(),
		Partials:  s.partials.Load(),
		Corrupts:  s.corrupts.Load(),
		Delays:    s.delays.Load(),
		BytesUp:   s.bytesUp.Load(),
		BytesDown: s.bytesDown.Load(),
	}
}

// Proxy is a fault-injecting TCP proxy. It listens on a loopback port and
// forwards each accepted connection to the target address, running the
// fault schedule independently on each direction of each connection.
// Severing one direction severs the whole connection — half-open TCP is
// not a shape the serving protocol distinguishes.
type Proxy struct {
	cfg    Config
	target string
	ln     net.Listener
	st     stats

	mu     sync.Mutex
	conns  map[*proxyConn]struct{}
	connID uint64
	closed bool

	wg sync.WaitGroup
}

// NewProxy starts a proxy on an ephemeral loopback port forwarding to
// target. Close releases it.
func NewProxy(target string, cfg Config) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	p := &Proxy{
		cfg:    cfg.withDefaults(),
		target: target,
		ln:     ln,
		conns:  make(map[*proxyConn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address for clients to dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats returns a snapshot of the injected-fault counters.
func (p *Proxy) Stats() Stats { return p.st.snapshot() }

// Close stops accepting, severs every active connection, and waits for
// the pump goroutines to exit.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, c := range conns {
		c.sever()
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.st.conns.Add(1)
		server, err := net.Dial("tcp", p.target)
		if err != nil {
			// Target down (e.g. mid-restart): the client sees exactly
			// what it would see dialing a dead server.
			client.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			client.Close()
			server.Close()
			return
		}
		id := p.connID
		p.connID++
		pc := &proxyConn{client: client, server: server}
		p.conns[pc] = struct{}{}
		p.mu.Unlock()

		p.wg.Add(2)
		go p.pump(pc, id, 0)
		go p.pump(pc, id, 1)
	}
}

type proxyConn struct {
	client, server net.Conn
	once           sync.Once
}

// sever closes both sides exactly once; either pump or Proxy.Close may
// trigger it.
func (c *proxyConn) sever() {
	c.once.Do(func() {
		c.client.Close()
		c.server.Close()
	})
}

// pump forwards one direction of a connection, applying the fault
// schedule per chunk. dir 0 is client→server, dir 1 is server→client.
func (p *Proxy) pump(pc *proxyConn, connID uint64, dir int) {
	defer p.wg.Done()
	defer func() {
		pc.sever()
		p.mu.Lock()
		delete(p.conns, pc)
		p.mu.Unlock()
	}()

	src, dst := pc.client, pc.server
	bytesFwd := &p.st.bytesUp
	if dir == 1 {
		src, dst = pc.server, pc.client
		bytesFwd = &p.st.bytesDown
	}
	r := rng.NewStream(p.cfg.Seed, connID*2+uint64(dir))
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if !p.forward(dst, chunk, r, bytesFwd) {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// forward applies the fault schedule to one chunk and writes it to dst.
// It reports false when the connection was severed. Draw order is fixed —
// drop, stall, partial, corrupt, latency — and a zero rate draws nothing,
// so enabling one site never perturbs another site's schedule.
func (p *Proxy) forward(dst net.Conn, chunk []byte, r *rng.Rand, bytesFwd *atomic.Uint64) bool {
	cfg := &p.cfg
	if cfg.DropRate > 0 && r.Float64() < cfg.DropRate {
		p.st.drops.Add(1)
		return false
	}
	if cfg.StallRate > 0 && r.Float64() < cfg.StallRate {
		p.st.stalls.Add(1)
		time.Sleep(cfg.StallFor)
	}
	if cfg.PartialWriteRate > 0 && len(chunk) > 1 && r.Float64() < cfg.PartialWriteRate {
		p.st.partials.Add(1)
		prefix := chunk[:1+r.Intn(len(chunk)-1)]
		if n, err := dst.Write(prefix); err == nil {
			bytesFwd.Add(uint64(n))
		}
		return false
	}
	if cfg.CorruptRate > 0 && r.Float64() < cfg.CorruptRate {
		p.st.corrupts.Add(1)
		bit := r.Intn(len(chunk) * 8)
		chunk[bit/8] ^= 1 << (bit % 8)
	}
	if cfg.LatencyRate > 0 && r.Float64() < cfg.LatencyRate {
		p.st.delays.Add(1)
		time.Sleep(cfg.LatencyFor)
	}
	n, err := dst.Write(chunk)
	bytesFwd.Add(uint64(n))
	return err == nil
}
