package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"rlpm/internal/obs"
)

// batchReq is one submission's exploitation lookups awaiting a shared
// batch. Its submitter owns it and reuses it for every Do: a session owns
// one, a binary connection's decide window another. The done channel
// (capacity 1) is created by the first Do, so a warmed submitter submits
// with zero allocations.
type batchReq struct {
	lookups  []Lookup
	out      []int
	done     chan error
	enqueued time.Time // submission instant, for the queue-wait histogram
}

// batcherObs is the batcher's slice of the server's metrics registry:
// dispatch counters plus the three batch-side stages of the decide path.
type batcherObs struct {
	batches    *obs.Counter
	lookups    *obs.Counter
	rejected   *obs.Counter   // submits refused with ErrOverloaded
	stale      *obs.Counter   // queued requests shed past the queue deadline
	queueWait  *obs.Histogram // submit → joins a dispatching batch
	assemble   *obs.Histogram // batch opens → dispatch (opportunistic grab)
	backendLat *obs.Histogram // backend.Decide wall time
}

// opportunisticPolls bounds how many consecutive empty Pops the worker's
// opportunistic grab phase retries before dispatching. Each retry is one
// ring probe (~ns): enough for a producer mid-publish to land, cheap
// enough never to matter when the ring is truly empty.
const opportunisticPolls = 8

// batcher coalesces concurrent decide requests into batched backend calls,
// the software mirror of hwpolicy's multi-channel doorbell: many waiters,
// one conversation with the expensive resource. A single worker goroutine
// owns the backend, so backends need no internal locking.
//
// Submission rides a bounded lock-free MPSC ring instead of a buffered
// channel: Push either lands in O(1) or reports full, so submit→dispatch
// never blocks on a channel send. A full ring is backpressure — Do returns
// ErrOverloaded instead of silently stalling the caller.
type batcher struct {
	backend  Backend
	ring     *mpscRing
	wake     chan struct{} // capacity 1; producers nudge the parked worker
	maxBatch int           // max lookups per backend call
	deadline time.Duration // CoDel-style queue-staleness bound; 0 disables
	quit     chan struct{}
	wg       sync.WaitGroup
	closeMu  sync.RWMutex
	closed   bool
	o        batcherObs

	maxOcc atomic.Uint64
	// ewmaWaitNs tracks recent queue wait (α=1/8) and sizes the backoff
	// hint handed to shed clients: retrying after ~2× the current queue
	// wait gives the ring time to drain without parking clients forever.
	ewmaWaitNs atomic.Int64
}

func newBatcher(backend Backend, maxBatch int, deadline time.Duration, o batcherObs) *batcher {
	b := &batcher{
		backend:  backend,
		ring:     newMPSCRing(4 * maxBatch),
		wake:     make(chan struct{}, 1),
		maxBatch: maxBatch,
		deadline: deadline,
		quit:     make(chan struct{}),
		o:        o,
	}
	b.wg.Add(1)
	go b.run()
	return b
}

// backoffHintMs converts the queue-wait EWMA into the retry hint carried
// on overload responses (Retry-After / the wire error frame's backoff
// field): ~2× the recent queue wait, clamped to [5ms, 1s]. The floor also
// covers ring-full rejections before any wait has been observed.
func (b *batcher) backoffHintMs() uint32 {
	ms := 2 * b.ewmaWaitNs.Load() / int64(time.Millisecond)
	if ms < 5 {
		ms = 5
	}
	if ms > 1000 {
		ms = 1000
	}
	return uint32(ms)
}

// observeWait feeds one request's queue wait to the histogram and EWMA.
func (b *batcher) observeWait(w time.Duration) {
	b.o.queueWait.Observe(w.Nanoseconds())
	old := b.ewmaWaitNs.Load()
	b.ewmaWaitNs.Store(old - old/8 + w.Nanoseconds()/8)
}

// Do submits lookups through req and blocks until the worker has resolved
// them into out. A full ring fails fast with ErrOverloaded — the caller
// sheds load rather than queueing unboundedly. Safe for concurrent use
// with distinct reqs; one req carries one submission at a time. The done
// channel is empty again when Do returns: the worker sends exactly once
// per popped request, and Do receives that send.
func (b *batcher) Do(req *batchReq, lookups []Lookup, out []int) error {
	if req.done == nil {
		req.done = make(chan error, 1)
	}
	req.lookups, req.out, req.enqueued = lookups, out, time.Now()
	// The read lock is held across the push: Close flips closed under the
	// write lock, so once Close proceeds no producer can be mid-push and
	// the worker's final drain empties the ring for good.
	b.closeMu.RLock()
	if b.closed {
		b.closeMu.RUnlock()
		return ErrServerClosed
	}
	ok := b.ring.Push(req)
	b.closeMu.RUnlock()
	if !ok {
		b.o.rejected.Add(1)
		return ErrOverloaded
	}
	// Nudge a parked worker. The send happens after the push published, so
	// a worker that saw an empty ring before our item either finds the
	// token here or is already awake; capacity 1 makes a stale token at
	// worst one spurious poll, never a lost wakeup.
	select {
	case b.wake <- struct{}{}:
	default:
	}
	return <-req.done
}

// Close stops the worker; queued requests fail with ErrServerClosed.
func (b *batcher) Close() {
	b.closeMu.Lock()
	if !b.closed {
		b.closed = true
		close(b.quit)
	}
	b.closeMu.Unlock()
	b.wg.Wait()
}

func (b *batcher) stats() (batches, lookups, maxOcc uint64) {
	return b.o.batches.Load(), b.o.lookups.Load(), b.maxOcc.Load()
}

func (b *batcher) run() {
	defer b.wg.Done()
	var (
		reqs    []*batchReq
		flat    []Lookup
		actions []int
		held    *batchReq // popped off the ring but over this batch's cap
	)
	for {
		var first *batchReq
		if held != nil {
			first, held = held, nil
		} else {
			for first = b.ring.Pop(); first == nil; first = b.ring.Pop() {
				select {
				case <-b.wake:
				case <-b.quit:
					b.drain()
					return
				}
			}
		}
		opened := time.Now()
		// CoDel-style staleness shedding: a request that sat in the ring
		// past the queue deadline is failed instead of served — its client
		// has likely timed out and retried already, so serving it now is
		// wasted backend work ahead of fresher requests.
		if b.deadline > 0 && opened.Sub(first.enqueued) > b.deadline {
			b.o.stale.Add(1)
			b.observeWait(opened.Sub(first.enqueued))
			first.done <- ErrOverloaded
			continue
		}
		b.observeWait(opened.Sub(first.enqueued))
		reqs = append(reqs[:0], first)
		total := len(first.lookups)

		// accept admits r to the current batch unless its lookups would
		// push the batch past the cap; an overflowing request is held back
		// as the seed of the next batch (requests are indivisible — one
		// session's lookups never split across backend calls). A held
		// request's queue wait is observed when it opens the next batch.
		// Stale requests are shed here too, without consuming batch space.
		accept := func(r *batchReq) bool {
			wait := time.Since(r.enqueued)
			if b.deadline > 0 && wait > b.deadline {
				b.o.stale.Add(1)
				b.observeWait(wait)
				r.done <- ErrOverloaded
				return true // shed, but keep grabbing
			}
			if total+len(r.lookups) > b.maxBatch {
				held = r
				return false
			}
			b.observeWait(wait)
			reqs = append(reqs, r)
			total += len(r.lookups)
			return true
		}

		// Grab whatever is already queued, up to the cap, without waiting
		// long. A nil Pop does not mean the ring is
		// empty — a producer may have claimed the oldest slot but not yet
		// published it (the MPSC ring's claim and publish are two steps) —
		// so a bounded number of re-polls lets near-simultaneous submitters
		// land in this batch instead of each dispatching alone. The bound
		// keeps the worker from spinning on a stalled producer.
		polls := opportunisticPolls
		for held == nil && total < b.maxBatch {
			r := b.ring.Pop()
			if r == nil {
				if polls--; polls < 0 {
					break
				}
				continue
			}
			polls = opportunisticPolls
			if !accept(r) {
				break
			}
		}

		flat = flat[:0]
		for _, r := range reqs {
			flat = append(flat, r.lookups...)
		}
		if cap(actions) < len(flat) {
			actions = make([]int, len(flat))
		}
		actions = actions[:len(flat)]
		dispatch := time.Now()
		b.o.assemble.Observe(dispatch.Sub(opened).Nanoseconds())
		err := b.backend.Decide(flat, actions)
		b.o.backendLat.Observe(time.Since(dispatch).Nanoseconds())
		off := 0
		for _, r := range reqs {
			if err == nil {
				copy(r.out, actions[off:off+len(r.lookups)])
			}
			off += len(r.lookups)
			r.done <- err
		}
		b.o.batches.Add(1)
		b.o.lookups.Add(uint64(total))
		if occ := uint64(total); occ > b.maxOcc.Load() {
			b.maxOcc.Store(occ)
		}
	}
}

// drain fails everything still queued at shutdown. Safe because Close
// guarantees no producer is mid-push once quit is closed.
func (b *batcher) drain() {
	for r := b.ring.Pop(); r != nil; r = b.ring.Pop() {
		r.done <- ErrServerClosed
	}
}
