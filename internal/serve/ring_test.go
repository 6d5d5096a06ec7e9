package serve

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"rlpm/internal/obs"
)

func testBatcherObs() batcherObs {
	reg := obs.NewRegistry()
	return batcherObs{
		batches:    reg.NewCounter("batches", "test"),
		lookups:    reg.NewCounter("lookups", "test"),
		rejected:   reg.NewCounter("rejected", "test"),
		queueWait:  reg.NewHistogram("stage_ns", "test", obs.Label{Key: "stage", Value: "queue_wait"}),
		assemble:   reg.NewHistogram("stage_ns", "test", obs.Label{Key: "stage", Value: "assemble"}),
		backendLat: reg.NewHistogram("stage_ns", "test", obs.Label{Key: "stage", Value: "backend"}),
	}
}

func TestRingFIFO(t *testing.T) {
	r := newMPSCRing(8)
	reqs := make([]*batchReq, 6)
	for i := range reqs {
		reqs[i] = &batchReq{out: []int{i}}
		if !r.Push(reqs[i]) {
			t.Fatalf("push %d rejected with %d free slots", i, r.Cap()-i)
		}
	}
	for i := range reqs {
		if got := r.Pop(); got != reqs[i] {
			t.Fatalf("pop %d returned %p, want %p", i, got, reqs[i])
		}
	}
	if got := r.Pop(); got != nil {
		t.Fatalf("pop of empty ring returned %p", got)
	}
}

func TestRingFullRejectsThenRecovers(t *testing.T) {
	r := newMPSCRing(5) // rounds up to 8
	if r.Cap() != 8 {
		t.Fatalf("capacity 5 rounded to %d, want 8", r.Cap())
	}
	for i := 0; i < r.Cap(); i++ {
		if !r.Push(&batchReq{}) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if r.Push(&batchReq{}) {
		t.Fatal("push into a full ring succeeded")
	}
	// One pop frees exactly one slot; the ring keeps working across the
	// wraparound boundary.
	if r.Pop() == nil {
		t.Fatal("pop of full ring returned nil")
	}
	if !r.Push(&batchReq{}) {
		t.Fatal("push after pop rejected")
	}
	for i := 0; i < r.Cap(); i++ {
		if r.Pop() == nil {
			t.Fatalf("pop %d of refilled ring returned nil", i)
		}
	}
}

// TestRingConcurrentProducers hammers Push from many goroutines while one
// consumer drains, asserting nothing is lost or duplicated and each
// producer's items arrive in its submission order (positions are claimed
// monotonically, so per-producer FIFO holds even though producers race).
func TestRingConcurrentProducers(t *testing.T) {
	const producers, perProducer = 8, 500
	r := newMPSCRing(16)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				req := &batchReq{out: []int{p, i}}
				for !r.Push(req) {
					runtime.Gosched() // full: wait for the consumer
				}
			}
		}(p)
	}
	next := make([]int, producers)
	for n := 0; n < producers*perProducer; {
		req := r.Pop()
		if req == nil {
			runtime.Gosched()
			continue
		}
		p, i := req.out[0], req.out[1]
		if next[p] != i {
			t.Fatalf("producer %d item %d arrived, want %d (per-producer FIFO broken)", p, i, next[p])
		}
		next[p]++
		n++
	}
	wg.Wait()
	if req := r.Pop(); req != nil {
		t.Fatalf("ring still held %v after draining every item", req.out)
	}
}

func TestRingPushPopAllocFree(t *testing.T) {
	r := newMPSCRing(8)
	req := &batchReq{}
	if n := testing.AllocsPerRun(100, func() {
		if !r.Push(req) {
			t.Fatal("push rejected")
		}
		if r.Pop() != req {
			t.Fatal("pop mismatch")
		}
	}); n != 0 {
		t.Fatalf("ring push+pop allocates %v times per op, want 0", n)
	}
}

// gateBackend blocks every Decide until the gate is released, signalling
// entry so tests can park the batch worker deterministically.
type gateBackend struct {
	inner   Backend
	entered chan struct{}
	gate    chan struct{}
}

func (g *gateBackend) Name() string { return "gate" }

func (g *gateBackend) Decide(lookups []Lookup, out []int) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.inner.Decide(lookups, out)
}

// TestBatcherOverloadBackpressure pins the overload contract that replaced
// the old buffered channel's silent blocking: with the worker parked in the
// backend, exactly ring-capacity submissions queue and every further one
// fails fast with ErrOverloaded, counted by the rejected counter. Releasing
// the backend then resolves every queued request successfully — shedding
// load loses only the shed requests.
func TestBatcherOverloadBackpressure(t *testing.T) {
	m := testModel(t, 3)
	gb := &gateBackend{inner: NewSWBackend(m), entered: make(chan struct{}, 1), gate: make(chan struct{})}
	o := testBatcherObs()
	b := newBatcher(gb, 1, 0, o) // maxBatch 1 → ring capacity 8
	released := false
	defer func() {
		if !released {
			close(gb.gate) // unblock the worker if the test bailed early
		}
		b.Close()
	}()

	errc := make(chan error, 128)
	do := func() {
		out := make([]int, 1)
		errc <- b.Do(new(batchReq), []Lookup{{Cluster: 0, State: 0}}, out)
	}

	// Park the worker: one request dispatches and blocks inside Decide.
	go do()
	select {
	case <-gb.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never reached the backend")
	}

	// With the worker parked, pushes fill the ring and nothing drains:
	// exactly Cap() of these queue, the rest must reject immediately.
	const extra = 64
	var wg sync.WaitGroup
	for i := 0; i < extra; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do()
		}()
	}
	wantRejected := uint64(extra - b.ring.Cap())
	deadline := time.Now().Add(5 * time.Second)
	for o.rejected.Load() < wantRejected {
		if time.Now().After(deadline) {
			t.Fatalf("rejected counter stuck at %d, want %d", o.rejected.Load(), wantRejected)
		}
		runtime.Gosched()
	}

	// Release the backend; every queued request must now succeed.
	close(gb.gate)
	released = true
	wg.Wait()
	var ok, rejected int
	for i := 0; i < extra; i++ {
		switch err := <-errc; {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if err := <-errc; err != nil { // the parked request
		t.Fatalf("parked request failed: %v", err)
	}
	if ok != b.ring.Cap() || rejected != extra-b.ring.Cap() {
		t.Fatalf("got %d ok + %d rejected, want %d + %d", ok, rejected, b.ring.Cap(), extra-b.ring.Cap())
	}
	if got := o.rejected.Load(); got != wantRejected {
		t.Fatalf("rejected counter %d, want %d", got, wantRejected)
	}
}

// TestBatcherDoAllocFree extends the PR 3 zero-allocation discipline to the
// submit→dispatch hop: with a caller-owned request and the ring, a
// steady-state Do allocates nothing on either side of the hand-off.
func TestBatcherDoAllocFree(t *testing.T) {
	m := testModel(t, 3, 4)
	b := newBatcher(NewSWBackend(m), 8, 0, testBatcherObs())
	defer b.Close()
	var req batchReq
	lookups := []Lookup{{Cluster: 0, State: 1}, {Cluster: 1, State: 2}}
	out := make([]int, 2)
	for i := 0; i < 10; i++ { // warm the request and the worker's scratch
		if err := b.Do(&req, lookups, out); err != nil {
			t.Fatalf("warm-up: %v", err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := b.Do(&req, lookups, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("batcher.Do allocates %v times per call, want 0", n)
	}
}

func BenchmarkRingPushPop(b *testing.B) {
	r := newMPSCRing(256)
	req := &batchReq{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Push(req)
		r.Pop()
	}
}

func BenchmarkBatcherDo(b *testing.B) {
	m := testModel(b, 3, 4)
	bt := newBatcher(NewSWBackend(m), 256, 0, testBatcherObs())
	defer bt.Close()
	var req batchReq
	lookups := []Lookup{{Cluster: 0, State: 1}, {Cluster: 1, State: 2}}
	out := make([]int, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bt.Do(&req, lookups, out); err != nil {
			b.Fatal(err)
		}
	}
}
