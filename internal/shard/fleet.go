// Fleet: N in-process pmserve shards behind loopback listeners, every
// replica hydrated from ONE checkpoint encoding of the source model —
// the same encode → decode path a production shard takes when it loads
// the published checkpoint, so the differential tests exercise the codec,
// not just pointer sharing. Shards are named "s0".."sN-1"; killed shards
// leave their slot so a later AddShard mints a fresh name.
package shard

import (
	"bytes"
	"fmt"
	"net"
	"net/http/httptest"
	"sync"

	"rlpm/internal/core"
	"rlpm/internal/serve"
)

// fleetShard is one running replica and its listeners.
type fleetShard struct {
	spec    ShardSpec
	srv     *serve.Server
	binLn   net.Listener
	httpSrv *httptest.Server
}

// Fleet owns N shard replicas for tests and benchmarks.
type Fleet struct {
	cfg  serve.Config
	ckpt []byte // the one checkpoint encoding every replica hydrates from
	mcfg core.Config

	mu     sync.Mutex
	shards map[string]*fleetShard
	next   int
	closed bool
}

// NewFleet encodes model once and starts n replicas hydrated from that
// encoding. cfg applies to every shard; cfg.Epoch seeds the first shard's
// epoch and subsequent shards (including later AddShard calls) get
// distinct epochs so cross-shard handle confusion is structurally
// impossible.
func NewFleet(model *serve.Model, n int, cfg serve.Config) (*Fleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: fleet needs at least 1 shard, got %d", n)
	}
	var buf bytes.Buffer
	if err := model.WriteCheckpoint(&buf); err != nil {
		return nil, fmt.Errorf("shard: encoding fleet checkpoint: %w", err)
	}
	f := &Fleet{
		cfg:    cfg,
		ckpt:   buf.Bytes(),
		mcfg:   model.Config(),
		shards: make(map[string]*fleetShard, n),
	}
	for i := 0; i < n; i++ {
		if _, err := f.AddShard(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// AddShard starts one more replica (fresh name, fresh epoch) and returns
// its spec — what the router needs to join it to the ring.
func (f *Fleet) AddShard() (ShardSpec, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ShardSpec{}, serve.ErrServerClosed
	}
	f.next++
	idx := f.next
	f.mu.Unlock()

	model, err := serve.ReadModel(bytes.NewReader(f.ckpt), int64(len(f.ckpt)), f.mcfg)
	if err != nil {
		return ShardSpec{}, fmt.Errorf("shard: hydrating replica: %w", err)
	}
	cfg := f.cfg
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	cfg.Epoch += uint32(idx - 1)
	srv, err := serve.New(model, nil, cfg)
	if err != nil {
		return ShardSpec{}, err
	}
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return ShardSpec{}, err
	}
	go srv.ServeBin(binLn)
	httpSrv := httptest.NewServer(srv.Handler())

	sh := &fleetShard{
		spec: ShardSpec{
			Name:     fmt.Sprintf("s%d", idx-1),
			BinAddr:  binLn.Addr().String(),
			HTTPAddr: httpSrv.Listener.Addr().String(),
		},
		srv:     srv,
		binLn:   binLn,
		httpSrv: httpSrv,
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		stopFleetShard(sh)
		return ShardSpec{}, serve.ErrServerClosed
	}
	f.shards[sh.spec.Name] = sh
	f.mu.Unlock()
	return sh.spec, nil
}

// Specs returns the live shards' specs sorted by name.
func (f *Fleet) Specs() []ShardSpec {
	f.mu.Lock()
	defer f.mu.Unlock()
	specs := make([]ShardSpec, 0, len(f.shards))
	for _, sh := range f.shards {
		specs = append(specs, sh.spec)
	}
	sortSpecs(specs)
	return specs
}

func sortSpecs(specs []ShardSpec) {
	for i := 1; i < len(specs); i++ {
		for j := i; j > 0 && specs[j].Name < specs[j-1].Name; j-- {
			specs[j], specs[j-1] = specs[j-1], specs[j]
		}
	}
}

// Server returns a live shard's server (tests poke shard-side state).
func (f *Fleet) Server(name string) *serve.Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	if sh, ok := f.shards[name]; ok {
		return sh.srv
	}
	return nil
}

func (f *Fleet) take(name string) *fleetShard {
	f.mu.Lock()
	defer f.mu.Unlock()
	sh, ok := f.shards[name]
	if !ok {
		return nil
	}
	delete(f.shards, name)
	return sh
}

// KillShard tears a shard down abruptly — listeners and server die,
// in-flight calls fail. The chaos flavor of shard loss.
func (f *Fleet) KillShard(name string) error {
	sh := f.take(name)
	if sh == nil {
		return fmt.Errorf("shard: %q not in fleet", name)
	}
	stopFleetShard(sh)
	return nil
}

// StopShard is the graceful flavor: used after the router already removed
// the shard from the ring, so no new forwards arrive while it drains.
func (f *Fleet) StopShard(name string) error {
	return f.KillShard(name) // loopback shards have nothing buffered worth a drain grace
}

func stopFleetShard(sh *fleetShard) {
	sh.srv.Close()
	sh.binLn.Close()
	sh.httpSrv.CloseClientConnections()
	sh.httpSrv.Close()
}

// Close stops every shard.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	shards := make([]*fleetShard, 0, len(f.shards))
	for _, sh := range f.shards {
		shards = append(shards, sh)
	}
	f.shards = make(map[string]*fleetShard)
	f.mu.Unlock()
	for _, sh := range shards {
		stopFleetShard(sh)
	}
}
