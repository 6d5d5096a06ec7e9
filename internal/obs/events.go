package obs

import (
	"fmt"
	"sync"
	"time"
)

// Event is one structured runtime occurrence: a health-ladder transition,
// a checkpoint save/restore outcome, an injected fault. Events are for
// the rare, narratable moments — per-decision measurements belong in
// histograms and counters.
type Event struct {
	// Seq is the event's global sequence number (1-based, never reused),
	// so a reader polling /debug/events can detect both ordering and how
	// many events the bounded ring dropped between polls.
	Seq uint64 `json:"seq"`
	// At is the wall-clock capture instant.
	At time.Time `json:"at"`
	// Kind groups events for filtering: "checkpoint", "hwpolicy",
	// "fault", "serve", ...
	Kind string `json:"kind"`
	// Msg is the human-readable description.
	Msg string `json:"msg"`
}

// EventLog is a bounded ring buffer of events. Appends are O(1) and never
// grow memory past the configured capacity: when full, the oldest event
// is overwritten. Safe for concurrent use.
type EventLog struct {
	mu    sync.Mutex
	buf   []Event
	start int    // index of the oldest event
	n     int    // live events in buf
	total uint64 // events ever recorded (== last Seq)
}

// NewEventLog creates a log holding the most recent capacity events.
func NewEventLog(capacity int) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{buf: make([]Event, capacity)}
}

// Add records an event.
func (l *EventLog) Add(kind, msg string) {
	l.mu.Lock()
	l.total++
	e := Event{Seq: l.total, At: time.Now(), Kind: kind, Msg: msg}
	if l.n < len(l.buf) {
		l.buf[(l.start+l.n)%len(l.buf)] = e
		l.n++
	} else {
		l.buf[l.start] = e
		l.start = (l.start + 1) % len(l.buf)
	}
	l.mu.Unlock()
}

// Addf records a formatted event.
func (l *EventLog) Addf(kind, format string, args ...any) {
	l.Add(kind, fmt.Sprintf(format, args...))
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, l.n)
	for i := 0; i < l.n; i++ {
		out[i] = l.buf[(l.start+i)%len(l.buf)]
	}
	return out
}

// Total returns how many events were ever recorded (retained or evicted).
func (l *EventLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
