// Package leaktest asserts that tests do not leak goroutines, using only
// the standard library.
//
// The serving tier's resilience guarantees include "no goroutine leaks":
// every reconnect, drain, crash, and chaos schedule must return the
// process to its baseline goroutine set. This package is the enforcement
// point — a small goleak-style checker that snapshots the live goroutines
// when a test starts and fails the test if new ones are still running
// when it ends. Shutdown is asynchronous (connection pumps, learner
// goroutines, TTL reapers all wind down after Close returns), so the checker
// polls for a grace window before declaring a leak rather than demanding
// instantaneous quiescence.
package leaktest

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// grace is how long a leaked-looking goroutine gets to finish winding
// down before the checker declares it a real leak.
const grace = 5 * time.Second

// goroutine is one parsed stanza of a full runtime.Stack dump.
type goroutine struct {
	id     uint64
	top    string // fully qualified function at the top of the stack
	stanza string // the raw stanza, for failure messages
}

// ignoredTops lists top-of-stack function prefixes for goroutines the
// runtime and testing machinery own; they are never charged to a test.
var ignoredTops = []string{
	"testing.",
	"runtime.goexit",
	"runtime.gc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.forcegchelper",
	"runtime.timer",
	"runtime.ensureSigM",
	"runtime.ReadTrace",
	"os/signal.signal_recv",
	"os/signal.loop",
	"rlpm/internal/leaktest.",
}

func ignored(g goroutine) bool {
	for _, p := range ignoredTops {
		if strings.HasPrefix(g.top, p) {
			return true
		}
	}
	return false
}

// snapshot parses a full goroutine dump into stanzas.
func snapshot() []goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var gs []goroutine
	for _, stanza := range strings.Split(string(buf), "\n\n") {
		g, ok := parseStanza(stanza)
		if ok {
			gs = append(gs, g)
		}
	}
	return gs
}

// parseStanza extracts the id and top function from one dump stanza of
// the form "goroutine N [state]:\ntop.Function(args)\n\tfile:line ...".
func parseStanza(stanza string) (goroutine, bool) {
	lines := strings.SplitN(stanza, "\n", 3)
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "goroutine ") {
		return goroutine{}, false
	}
	header := strings.TrimPrefix(lines[0], "goroutine ")
	sp := strings.IndexByte(header, ' ')
	if sp < 0 {
		return goroutine{}, false
	}
	id, err := strconv.ParseUint(header[:sp], 10, 64)
	if err != nil {
		return goroutine{}, false
	}
	top := lines[1]
	if i := strings.IndexByte(top, '('); i > 0 {
		top = top[:i]
	}
	return goroutine{id: id, top: strings.TrimSpace(top), stanza: stanza}, true
}

// leakedSince returns the interesting goroutines that are running now but
// were not part of the baseline id set.
func leakedSince(base map[uint64]bool) []goroutine {
	var leaked []goroutine
	for _, g := range snapshot() {
		if base[g.id] || ignored(g) {
			continue
		}
		leaked = append(leaked, g)
	}
	return leaked
}

// Check snapshots the current goroutines and returns a function to defer;
// the deferred call fails t if goroutines created during the test are
// still alive after the grace window. Typical use:
//
//	defer leaktest.Check(t)()
func Check(t testing.TB) func() {
	t.Helper()
	base := make(map[uint64]bool)
	for _, g := range snapshot() {
		base[g.id] = true
	}
	return func() {
		t.Helper()
		if err := settle(base); err != nil {
			t.Error(err)
		}
	}
}

// settle polls until no goroutines beyond the baseline remain or the
// grace window expires.
func settle(base map[uint64]bool) error {
	deadline := time.Now().Add(grace)
	var leaked []goroutine
	for {
		// The shared HTTP transport parks keep-alive connections with a
		// reader goroutine each; they are pool bookkeeping, not leaks,
		// so release them before judging.
		http.DefaultClient.CloseIdleConnections()
		if leaked = leakedSince(base); len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "leaktest: %d goroutine(s) leaked:", len(leaked))
	for _, g := range leaked {
		b.WriteString("\n\n")
		b.WriteString(g.stanza)
	}
	return fmt.Errorf("%s", b.String())
}

// Main wraps testing.M for package-level leak checking:
//
//	func TestMain(m *testing.M) { os.Exit(leaktest.Main(m)) }
//
// It runs the package's tests and, when they pass, fails the run if the
// whole package left stray goroutines behind.
func Main(m *testing.M) int {
	code := m.Run()
	if code == 0 {
		if err := settle(map[uint64]bool{}); err != nil {
			fmt.Println(err)
			code = 1
		}
	}
	return code
}
