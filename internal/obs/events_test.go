package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestEventLogRingEviction(t *testing.T) {
	l := NewEventLog(3)
	for i := 1; i <= 5; i++ {
		l.Addf("k", "event %d", i)
	}
	if l.Total() != 5 {
		t.Fatalf("total %d, want 5", l.Total())
	}
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("%d retained events, want capacity 3", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(3 + i) // events 3,4,5 survive, oldest first
		if e.Seq != wantSeq {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Msg != fmt.Sprintf("event %d", wantSeq) {
			t.Fatalf("event %d msg %q", i, e.Msg)
		}
		if e.Kind != "k" {
			t.Fatalf("event %d kind %q", i, e.Kind)
		}
		if e.At.IsZero() {
			t.Fatalf("event %d has zero timestamp", i)
		}
	}
}

func TestEventLogMinimumCapacity(t *testing.T) {
	l := NewEventLog(0)
	l.Add("k", "a")
	l.Add("k", "b")
	if evs := l.Events(); len(evs) != 1 || evs[0].Msg != "b" {
		t.Fatalf("capacity-0 log retained %+v, want only the last event", evs)
	}
}

// TestEventLogConcurrent exercises the log from many goroutines under the
// race detector: total must equal the adds, seqs must be unique.
func TestEventLogConcurrent(t *testing.T) {
	l := NewEventLog(64)
	const goroutines, per = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Addf("k", "g%d-%d", g, i)
				_ = l.Events()
			}
		}(g)
	}
	wg.Wait()
	if l.Total() != goroutines*per {
		t.Fatalf("total %d, want %d", l.Total(), goroutines*per)
	}
	seen := map[uint64]bool{}
	for _, e := range l.Events() {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}
