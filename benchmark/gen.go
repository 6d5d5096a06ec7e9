package main

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runClock is the run's single monotonic time base; every due time,
// latency and span is ns since base.
type runClock struct{ base time.Time }

func (c *runClock) now() int64 { return int64(time.Since(c.base)) }

// fleet is the open-loop generator: one pacer hands due frames to a pool
// of one worker per device. A device has at most one frame in flight, so a
// due frame never waits for a worker, even when a server stalls and
// hundreds of devices are in flight. A device whose previous frame is
// still in flight is not handed out again; its next frame waits, and the
// wait counts toward that frame's latency because latency runs from the
// due time.
type fleet struct {
	clock runClock
	devs  []*device
	work  chan *device   // devices with a frame due; a device is queued at most once
	win   *pacedWindow   // written before a window's pacer starts, read by workers after receiving
	busy  atomic.Int64   // devices queued or in flight
	wg    sync.WaitGroup // devices with frames pending in the current window
	stop  chan struct{}
	done  sync.WaitGroup // the workers
}

// pacedWindow is one open-loop window: n devices with evenly spread phase
// offsets, each due every periodNs. Frame f of device i is due at
// t0 + (f·n + i)·periodNs/n, the same formula for pacer and workers.
type pacedWindow struct {
	id          int
	t0, end     int64
	n, periodNs int64
	traced      bool
	inflightMax int64 // written by the pacer only
}

func (p *pacedWindow) due(seq int64) int64 { return p.t0 + seq*p.periodNs/p.n }

func newFleet(devs []*device) *fleet {
	f := &fleet{clock: runClock{base: time.Now()}, devs: devs, stop: make(chan struct{})}
	f.work = make(chan *device, len(devs))
	f.done.Add(len(devs))
	for range devs {
		go f.worker()
	}
	return f
}

// close stops the worker pool and waits for it.
func (f *fleet) close() {
	close(f.stop)
	f.done.Wait()
}

// pace runs one open-loop window over the first n devices for dur, booking
// into ledger win, and returns once every frame due in it has finished.
func (f *fleet) pace(ctx context.Context, win, n int, dur time.Duration, traced bool) *pacedWindow {
	k := int64(f.devs[0].k)
	p := &pacedWindow{id: win, n: int64(n), periodNs: k * int64(periodS*float64(time.Second)), traced: traced}
	perDevice := int(int64(dur)/p.periodNs) + 2
	for _, d := range f.devs[:n] {
		d.winFrame = 0
		l := &d.acct[win]
		l.lat = make([]int64, 0, perDevice)
		l.late = make([]int64, 0, perDevice)
		if traced {
			d.spans = slices.Grow(d.spans, 4*perDevice)
			d.traceWin = win
		}
	}
	f.win = p
	p.t0 = f.clock.now() + int64(time.Millisecond)
	p.end = p.t0 + int64(dur)
	f.pacer(ctx, p)
	f.wg.Wait()
	return p
}

// pacer makes frames due on schedule. It runs on a locked OS thread with a
// 1 ns timer slack and sleeps with nanosleep: time.Sleep under 1 ms rounds
// up to the netpoller's 1 ms in an idle process, and spinning steals one of
// the cores the servers run on.
func (f *fleet) pacer(ctx context.Context, p *pacedWindow) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack(1)
	defer setTimerSlack(0) // 0 restores the thread's default slack
	for seq := int64(0); ; seq++ {
		due := p.due(seq)
		if due >= p.end || ctx.Err() != nil {
			return
		}
		for wait := due - f.clock.now(); wait > 0; wait = due - f.clock.now() {
			sleepNs(wait)
		}
		d := f.devs[seq%p.n]
		if d.pending.Add(1) == 1 {
			f.wg.Add(1)
			if b := f.busy.Add(1); b > p.inflightMax {
				p.inflightMax = b
			}
			f.work <- d
		}
	}
}

func (f *fleet) worker() {
	defer f.done.Done()
	// A frame in flight always finishes, so every ledger stays complete;
	// the clients' call timeout bounds it.
	ctx := context.Background()
	for {
		select {
		case <-f.stop:
			return
		case d := <-f.work:
			f.drainDevice(ctx, d)
			f.busy.Add(-1)
			f.wg.Done()
		}
	}
}

// drainDevice runs a device's due frames until none is pending. Only the
// first was handed out while the device was idle, so only its start
// measures the generator's lateness.
func (f *fleet) drainDevice(ctx context.Context, d *device) {
	p := f.win
	l := &d.acct[p.id]
	for first := true; ; first = false {
		due := p.due(d.winFrame*p.n + int64(d.idx))
		d.winFrame++
		start := f.clock.now()
		if first {
			l.late = append(l.late, start-due)
		}
		f.frame(ctx, d, l, p.traced, due, start)
		if d.pending.Add(-1) == 0 {
			return
		}
	}
}

// frame runs one frame and books it; a failed device stops sending and
// every later frame of it counts as failed.
func (f *fleet) frame(ctx context.Context, d *device, l *ledger, traced bool, due, start int64) (done int64, ok bool) {
	l.frames++
	if d.dead != nil {
		l.failed++
		return start, false
	}
	done, err := d.runFrame(ctx, &f.clock, l, traced, due, start)
	if err != nil {
		d.dead = err
		l.failed++
		return done, false
	}
	l.lat = append(l.lat, done-due)
	l.decisions += uint64(d.k)
	return done, true
}

// saturate keeps the first n devices in flight in a closed loop for dur —
// each sends its next frame the moment the previous one answers — booking
// into ledger win, and returns the control periods decided by frames that
// finished in time.
func (f *fleet) saturate(ctx context.Context, win, n int, dur time.Duration) uint64 {
	end := f.clock.now() + int64(dur)
	var total atomic.Uint64
	var wg sync.WaitGroup
	for _, d := range f.devs[:n] {
		wg.Add(1)
		go func(d *device) {
			defer wg.Done()
			l := &d.acct[win]
			var got uint64
			for ctx.Err() == nil {
				start := f.clock.now()
				if start >= end {
					break
				}
				done, ok := f.frame(ctx, d, l, false, start, start)
				if !ok {
					break
				}
				if done <= end {
					got += uint64(d.k)
				}
			}
			total.Add(got)
		}(d)
	}
	wg.Wait()
	return total.Load()
}

// setTimerSlack sets the calling thread's timer slack (PR_SET_TIMERSLACK).
func setTimerSlack(ns uintptr) {
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0)
}

// sleepNs blocks the calling thread for ns with nanosleep.
func sleepNs(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the pacer sleeps again
}
