// Command pmrouter fronts N pmserve shards with consistent-hash routing.
//
// Devices talk to the router exactly as they would to a single pmserve —
// same HTTP routes, same binary frames, same error codes and backoff
// hints — and the router forwards each call to the shard that owns the
// device's seed on a seed-deterministic consistent-hash ring. Shards are
// named on the command line:
//
//	pmrouter -addr 127.0.0.1:7430 -listen-bin 127.0.0.1:7431 \
//	  -shard s0=127.0.0.1:7422@127.0.0.1:7421 \
//	  -shard s1=127.0.0.1:7432@127.0.0.1:7431
//
// Each -shard is name=BINADDR[@HTTPADDR]: BINADDR is the shard's binary
// listener (the forwarding path), HTTPADDR its HTTP listener (used to
// scrape and merge per-shard metrics into the router's fleet-wide
// GET /metrics). Membership changes at runtime go through the admin
// routes POST /v1/shards and DELETE /v1/shards/{name}; sessions whose
// keyspace moves are invalidated and their devices transparently resume
// on the new owner.
//
// Every router that must agree on placement shares -ring-seed and
// -vnodes; GET /v1/ring publishes the ring so peers can verify.
//
// SIGINT/SIGTERM stop the fronts, wait for in-flight forwards, and exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rlpm/internal/serve"
	"rlpm/internal/shard"
)

// shardFlags collects repeatable -shard name=BINADDR[@HTTPADDR] values.
type shardFlags []shard.ShardSpec

func (s *shardFlags) String() string {
	parts := make([]string, len(*s))
	for i, sp := range *s {
		parts[i] = fmt.Sprintf("%s=%s@%s", sp.Name, sp.BinAddr, sp.HTTPAddr)
	}
	return strings.Join(parts, ",")
}

func (s *shardFlags) Set(v string) error {
	name, addrs, ok := strings.Cut(v, "=")
	if !ok || name == "" || addrs == "" {
		return fmt.Errorf("want name=BINADDR[@HTTPADDR], got %q", v)
	}
	binAddr, httpAddr, _ := strings.Cut(addrs, "@")
	if binAddr == "" {
		return fmt.Errorf("shard %q needs a binary address", name)
	}
	*s = append(*s, shard.ShardSpec{Name: name, BinAddr: binAddr, HTTPAddr: httpAddr})
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(code)
}

// run is pmrouter over args until ctx is cancelled. It returns the exit
// status: 0 after a clean shutdown, 1 when the router cannot start or a
// listener fails, 2 on a usage error.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	var shards shardFlags
	fs := flag.NewFlagSet("pmrouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7430", "HTTP listen address (device API, admin, merged /metrics)")
	binAddr := fs.String("listen-bin", "", "binary-protocol listen address; empty disables")
	epoch := fs.Uint("epoch", 1, "router incarnation number; bump on every restart")
	ringSeed := fs.Uint64("ring-seed", 1, "consistent-hash ring seed; share with every placement peer")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per shard (0 = default)")
	callTimeout := fs.Duration("call-timeout", 5*time.Second, "per-forward deadline to a shard")
	waitShards := fs.Duration("wait-shards", 0, "wait up to this long for every shard's /healthz before serving (0 = don't)")
	fs.Var(&shards, "shard", "shard as name=BINADDR[@HTTPADDR]; repeatable")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "pmrouter:", err)
		return 1
	}

	if len(shards) == 0 {
		return fail(errors.New("at least one -shard required"))
	}
	if *waitShards > 0 {
		if err := waitHealthy(shards, *waitShards); err != nil {
			return fail(err)
		}
	}

	router, err := shard.NewRouter(shard.RouterConfig{
		Epoch:       uint32(*epoch),
		RingSeed:    *ringSeed,
		VNodes:      *vnodes,
		CallTimeout: *callTimeout,
	}, shards)
	if err != nil {
		return fail(err)
	}
	defer router.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	hs := &http.Server{Handler: router.Handler()}
	fmt.Fprintf(stderr, "pmrouter: routing %d shards on http://%s (ring seed %d, epoch %d)\n",
		len(shards), ln.Addr(), *ringSeed, *epoch)

	binDone := make(chan error, 1)
	if *binAddr != "" {
		binLn, err := net.Listen("tcp", *binAddr)
		if err != nil {
			ln.Close()
			return fail(err)
		}
		fmt.Fprintf(stderr, "pmrouter: binary protocol on %s\n", binLn.Addr())
		go func() { binDone <- router.ServeBin(binLn) }()
	} else {
		binDone <- nil
	}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			router.Close()
			<-binDone
			return fail(err)
		}
	case <-ctx.Done():
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			fmt.Fprintln(stderr, "pmrouter: shutdown:", err)
		}
		<-errCh
	}
	router.Close() // closes the binary fronts so ServeBin returns
	if err := <-binDone; err != nil {
		return fail(fmt.Errorf("binary listener: %w", err))
	}
	fmt.Fprintln(stderr, "pmrouter: exiting")
	return 0
}

// waitHealthy polls each shard's /healthz (when it has an HTTP address)
// until it answers or the window runs out.
func waitHealthy(shards []shard.ShardSpec, window time.Duration) error {
	deadline := time.Now().Add(window)
	for _, sp := range shards {
		if sp.HTTPAddr == "" {
			continue
		}
		c := serve.NewClient("http://" + sp.HTTPAddr)
		remain := time.Until(deadline)
		if remain <= 0 {
			return fmt.Errorf("shard %s: health wait window exhausted", sp.Name)
		}
		ctx, cancel := context.WithTimeout(context.Background(), remain)
		err := c.WaitHealthy(ctx, remain)
		cancel()
		c.CloseIdleConnections()
		if err != nil {
			return fmt.Errorf("shard %s not healthy: %w", sp.Name, err)
		}
	}
	return nil
}
