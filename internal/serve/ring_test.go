package serve

import (
	"runtime"
	"sync"
	"testing"

	"rlpm/internal/core"
)

func TestRingFIFO(t *testing.T) {
	r := newTranRing(8)
	for i := 0; i < 6; i++ {
		if !r.Push(core.Transition{State: i}) {
			t.Fatalf("push %d rejected with %d free slots", i, len(r.slots)-i)
		}
	}
	for i := 0; i < 6; i++ {
		if got, ok := r.Pop(); !ok || got.State != i {
			t.Fatalf("pop %d returned %+v (ok %v), want state %d", i, got, ok, i)
		}
	}
	if got, ok := r.Pop(); ok {
		t.Fatalf("pop of empty ring returned %+v", got)
	}
}

func TestRingFullRejectsThenRecovers(t *testing.T) {
	r := newTranRing(5) // rounds up to 8
	if len(r.slots) != 8 {
		t.Fatalf("capacity 5 rounded to %d, want 8", len(r.slots))
	}
	for i := 0; i < len(r.slots); i++ {
		if !r.Push(core.Transition{}) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if r.Push(core.Transition{}) {
		t.Fatal("push into a full ring succeeded")
	}
	// One pop frees exactly one slot; the ring keeps working across the
	// wraparound boundary.
	if _, ok := r.Pop(); !ok {
		t.Fatal("pop of full ring found nothing")
	}
	if !r.Push(core.Transition{}) {
		t.Fatal("push after pop rejected")
	}
	for i := 0; i < len(r.slots); i++ {
		if _, ok := r.Pop(); !ok {
			t.Fatalf("pop %d of refilled ring found nothing", i)
		}
	}
}

// TestRingConcurrentProducers hammers Push from many goroutines while one
// consumer drains, asserting nothing is lost or duplicated and each
// producer's items arrive in its submission order (positions are claimed
// monotonically, so per-producer FIFO holds even though producers race).
func TestRingConcurrentProducers(t *testing.T) {
	const producers, perProducer = 8, 500
	r := newTranRing(16)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				for !r.Push(core.Transition{Cluster: p, State: i}) {
					runtime.Gosched() // full: wait for the consumer
				}
			}
		}(p)
	}
	next := make([]int, producers)
	for n := 0; n < producers*perProducer; {
		tr, ok := r.Pop()
		if !ok {
			runtime.Gosched()
			continue
		}
		p, i := tr.Cluster, tr.State
		if next[p] != i {
			t.Fatalf("producer %d item %d arrived, want %d (per-producer FIFO broken)", p, i, next[p])
		}
		next[p]++
		n++
	}
	wg.Wait()
	if tr, ok := r.Pop(); ok {
		t.Fatalf("ring still held %+v after draining every item", tr)
	}
}

func TestRingPushPopAllocFree(t *testing.T) {
	r := newTranRing(8)
	tr := core.Transition{Cluster: 1, State: 2, Action: 3, NextState: 4, Reward: -0.5}
	if n := testing.AllocsPerRun(100, func() {
		if !r.Push(tr) {
			t.Fatal("push rejected")
		}
		if got, ok := r.Pop(); !ok || got != tr {
			t.Fatal("pop mismatch")
		}
	}); n != 0 {
		t.Fatalf("ring push+pop allocates %v times per op, want 0", n)
	}
}

func BenchmarkRingPushPop(b *testing.B) {
	r := newTranRing(256)
	var tr core.Transition
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Push(tr)
		r.Pop()
	}
}

// BenchmarkSessionDecideInto times one two-cluster greedy decide served
// inline: validation, admission, the session lock, state encoding and two
// lookups on the pinned policy.
func BenchmarkSessionDecideInto(b *testing.B) {
	m := testModel(b, 3, 4)
	srv, err := New(m, nil, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	sess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		b.Fatal(err)
	}
	obs := []Observation{{Utilization: 0.6, Level: 1}, {DemandRatio: 1.1, Level: 3}}
	levels := make([]int, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.DecideInto(obs, levels); err != nil {
			b.Fatal(err)
		}
	}
}
