// Router: the thin tier between device clients and N pmserve shards.
//
// The router speaks the serve wire protocols on both sides. Devices talk
// to it exactly as they would to a single pmserve — same HTTP routes, same
// binary frames, same error codes and backoff hints — and it forwards each
// call to the shard that owns the device's key on the consistent-hash
// ring. It mints its own session handles in its own epoch, so shard-side
// handles never leak to devices and a shard restart or a rebalance is
// invisible to the client's addressing scheme. Both of its device fronts
// are serve's own (serve.BinFront, serve.JSONFront), run over a routerConn
// that forwards each call to the session's shard.
//
// The router deliberately does NOT retry or resume: device clients already
// run the full mirror/resume machinery (serve.RemoteSession), and they are
// the only party holding the session's resume state. When the keyspace a
// session lives in moves to another shard — membership change — or the
// owning shard dies, the router answers ErrUnknownSession. That is the
// handoff signal: the device resumes (one round trip) and the router
// places the resumed session on the current owner. Decisions can neither
// be lost nor duplicated across the handoff because the resume carries the
// device's sequence number and the shard-side replay cache deduplicates
// the retried frame.
package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"rlpm/internal/obs"
	"rlpm/internal/serve"
	"rlpm/internal/wire"
)

// ShardSpec names one shard and its two listening addresses.
type ShardSpec struct {
	Name     string `json:"name"`
	BinAddr  string `json:"bin_addr"`
	HTTPAddr string `json:"http_addr,omitempty"`
}

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Epoch identifies this router incarnation to devices; defaults to 1.
	Epoch uint32
	// RingSeed seeds the consistent-hash ring. Every router that should
	// agree on placement must share it.
	RingSeed uint64
	// VNodes is the ring's virtual-node count per shard; 0 selects
	// DefaultVNodes.
	VNodes int
	// CallTimeout bounds one forwarded call; defaults to 5s.
	CallTimeout time.Duration
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 5 * time.Second
	}
	return c
}

// shardConn is one shard's spec plus the multiplexed client every forward
// to that shard shares.
type shardConn struct {
	spec ShardSpec
	bc   *serve.BinClient
}

// routerSession is the router's record of one device session: which shard
// holds it and under what shard-side identity. The router's own handle is
// the device-visible name.
type routerSession struct {
	mu          sync.Mutex
	handle      uint64     // router-minted, device-visible
	key         uint64     // routing key: the device's seed
	shard       *shardConn // nil once moved
	shardHandle uint64
	shardEpoch  uint32
	moved       bool
	closed      bool
}

// Router owns the ring, the shard connections, the session table and the
// two device fronts.
type Router struct {
	cfg RouterConfig

	mu         sync.Mutex
	ring       *Ring
	shards     map[string]*shardConn
	sessions   map[uint64]*routerSession
	nextHandle uint64
	closed     bool

	start time.Time
	bin   *serve.BinFront
	json  *serve.JSONFront

	reg             *obs.Registry
	sessionsCreated *obs.Counter
	resumesFwd      *obs.Counter
	decideFrames    *obs.Counter
	rewardsFwd      *obs.Counter
	forwardErrors   *obs.Counter
	movedSessions   *obs.Counter
	scrapeErrors    *obs.Counter
}

// NewRouter builds a router over the initial shard set. Shard clients dial
// lazily on first forward, so a router can start before its shards listen.
func NewRouter(cfg RouterConfig, shards []ShardSpec) (*Router, error) {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	r := &Router{
		cfg:      cfg,
		ring:     NewRing(cfg.RingSeed, cfg.VNodes),
		shards:   make(map[string]*shardConn, len(shards)),
		sessions: make(map[uint64]*routerSession),
		start:    time.Now(),
		// A window gathers at most what a default pmserve window would, so
		// single-period frames of a small chip never reach the budget
		// before the 64-frame cap.
		bin: serve.NewBinFront(reg, "router", serve.DefaultMaxBatch),
		reg: reg,

		sessionsCreated: reg.NewCounter("router_sessions_created_total", "device sessions placed on shards"),
		resumesFwd:      reg.NewCounter("router_resumes_total", "resume requests forwarded (handoff completions)"),
		decideFrames:    reg.NewCounter("router_decide_frames_total", "decide frames forwarded"),
		rewardsFwd:      reg.NewCounter("router_rewards_total", "reward reports forwarded"),
		forwardErrors:   reg.NewCounter("router_forward_errors_total", "forwarded calls that failed"),
		movedSessions:   reg.NewCounter("router_sessions_moved_total", "sessions invalidated by membership change (handoff signals sent)"),
		scrapeErrors:    reg.NewCounter("router_scrape_errors_total", "fleet metric scrapes that failed"),
	}
	r.json = serve.NewJSONFront(reg, "router", r.openConn)
	reg.NewGaugeFunc("router_shards", "shards in the ring", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(len(r.shards))
	})
	reg.NewGaugeFunc("router_sessions", "live routed sessions", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(len(r.sessions))
	})
	reg.NewGaugeFunc("router_uptime_seconds", "seconds since router start", func() float64 {
		s := time.Since(r.start).Seconds()
		if s < 0 {
			return 0
		}
		return s
	})
	for _, sp := range shards {
		if err := r.AddShard(sp); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// ServeBin accepts binary-protocol device connections on ln until the
// listener fails or the router closes. It blocks; run it in a goroutine.
func (r *Router) ServeBin(ln net.Listener) error { return r.bin.Serve(ln, r.openConn) }

func (r *Router) openConn() serve.FrontConn { return &routerConn{r: r} }

// Shards returns the current shard specs in ring (sorted-name) order.
func (r *Router) Shards() []ShardSpec {
	r.mu.Lock()
	defer r.mu.Unlock()
	specs := make([]ShardSpec, 0, len(r.shards))
	for _, name := range r.ring.Members() {
		specs = append(specs, r.shards[name].spec)
	}
	return specs
}

// shardLoads reports live routed sessions per shard name — the rebalance
// harness uses it to pick a deterministic victim.
func (r *Router) shardLoads() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	loads := make(map[string]int, len(r.shards))
	for name := range r.shards {
		loads[name] = 0
	}
	for _, s := range r.sessions {
		s.mu.Lock()
		if s.shard != nil {
			loads[s.shard.spec.Name]++
		}
		s.mu.Unlock()
	}
	return loads
}

// movedRef is one session invalidated by a membership change, with the
// shard-side identity to clean up best-effort.
type movedRef struct {
	sc     *shardConn
	handle uint64
	epoch  uint32
}

// markMovedLocked invalidates every session whose ring owner is no longer
// the shard it lives on. Caller holds r.mu. The sessions leave the table
// immediately — their next request answers ErrUnknownSession, the handoff
// signal — and the returned refs let the caller close the shard-side
// sessions best-effort (the shard may already be dead; its TTL reaper is
// the backstop).
func (r *Router) markMovedLocked() []movedRef {
	var moved []movedRef
	for h, s := range r.sessions {
		s.mu.Lock()
		var cur string
		if s.shard != nil {
			cur = s.shard.spec.Name
		}
		owner, ok := r.ring.Owner(s.key)
		if s.shard == nil || !ok || owner != cur {
			if s.shard != nil && s.shardHandle != 0 {
				moved = append(moved, movedRef{sc: s.shard, handle: s.shardHandle, epoch: s.shardEpoch})
			}
			s.moved = true
			s.shard = nil
			delete(r.sessions, h)
			r.movedSessions.Add(1)
		}
		s.mu.Unlock()
	}
	return moved
}

// closeMovedAsync closes moved sessions on their old shards best-effort:
// bounded, fire-and-forget, failure is fine (dead shard, TTL reaps).
func (r *Router) closeMovedAsync(moved []movedRef) {
	if len(moved) == 0 {
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		var c serve.BinCaller
		for _, m := range moved {
			closeOnShard(ctx, &c, m)
		}
	}()
}

// closeOnShard closes the shard-side session m names best-effort through
// c, under the shard epoch that minted its handle: failure is fine (a dead
// shard's TTL reaper is the backstop).
func closeOnShard(ctx context.Context, c *serve.BinCaller, m movedRef) {
	_, _ = c.Call(ctx, m.sc.bc, &serve.FrontReq{Type: wire.TClose, Handle: m.handle, Epoch: m.epoch})
}

// AddShard joins a shard to the ring. Sessions whose keyspace moves to the
// new shard are invalidated (their devices resume onto it).
func (r *Router) AddShard(spec ShardSpec) error {
	if spec.Name == "" || spec.BinAddr == "" {
		return fmt.Errorf("shard: spec needs name and bin addr, got %+v", spec)
	}
	bc := serve.NewBinClient(spec.BinAddr)
	bc.SetCallTimeout(r.cfg.CallTimeout)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		bc.Close()
		return serve.ErrServerClosed
	}
	if _, dup := r.shards[spec.Name]; dup {
		r.mu.Unlock()
		bc.Close()
		return fmt.Errorf("shard: %q already in the ring", spec.Name)
	}
	r.shards[spec.Name] = &shardConn{spec: spec, bc: bc}
	r.ring.Add(spec.Name)
	moved := r.markMovedLocked()
	r.mu.Unlock()
	r.closeMovedAsync(moved)
	return nil
}

// RemoveShard drops a shard from the ring. Its sessions are invalidated;
// their devices resume onto the surviving owners of their keys.
func (r *Router) RemoveShard(name string) error {
	r.mu.Lock()
	sc, ok := r.shards[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("shard: %q not in the ring", name)
	}
	delete(r.shards, name)
	r.ring.Remove(name)
	moved := r.markMovedLocked()
	r.mu.Unlock()
	// Best-effort close on the removed shard only if it is being drained
	// gracefully (it may be dead — calls fail fast and that is fine), then
	// drop the client.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	var c serve.BinCaller
	for _, m := range moved {
		if m.sc == sc {
			closeOnShard(ctx, &c, m)
		}
	}
	cancel()
	var rest []movedRef
	for _, m := range moved {
		if m.sc != sc {
			rest = append(rest, m)
		}
	}
	r.closeMovedAsync(rest)
	sc.bc.Close()
	return nil
}

// Close tears the router down: fronts, shard clients, session table.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	conns := make([]*shardConn, 0, len(r.shards))
	for _, sc := range r.shards {
		conns = append(conns, sc)
	}
	r.sessions = make(map[uint64]*routerSession)
	r.mu.Unlock()

	r.bin.Close()

	for _, sc := range conns {
		sc.bc.Close()
	}
}

// errMoved is the handoff signal: the session's keyspace changed owner
// while the request was in flight.
func errMoved() error {
	return fmt.Errorf("%w: keyspace moved, resume on current owner", serve.ErrUnknownSession)
}

// mapForwardErr translates a shard-call failure into what the device
// should see. Session-scoped not-found answers become the handoff signal
// (resume); overload and sequencing errors pass through untouched so
// backoff hints and dedup semantics survive the extra hop; anything
// transport-shaped becomes a retryable server-closed.
func mapForwardErr(err error, sessionOp bool) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, serve.ErrOverloaded),
		errors.Is(err, serve.ErrBadSeq),
		errors.Is(err, serve.ErrBadRequest):
		return err
	case sessionOp && errors.Is(err, serve.ErrNoSession):
		// Covers ErrUnknownSession too (it wraps ErrNoSession): either way
		// the shard forgot the session and the device must resume.
		return fmt.Errorf("%w: shard lost session (%v)", serve.ErrUnknownSession, err)
	case sessionOp && errors.Is(err, serve.ErrSessionClosed):
		return fmt.Errorf("%w: shard session closed (%v)", serve.ErrUnknownSession, err)
	default:
		return fmt.Errorf("%w: shard call failed: %v", serve.ErrServerClosed, err)
	}
}

// maxPlaceAttempts bounds the create/resume placement loop against a ring
// that changes on every attempt; membership changes are rare, so 4 is
// generous.
const maxPlaceAttempts = 4

// routerConn is the FrontConn of a device connection to the router: each
// request is forwarded to its session's shard. A window keeps one slot —
// one caller — per request, so all of its forwards are in flight together
// and a warmed connection forwards decides without allocating.
type routerConn struct {
	r       *Router
	slots   []*routerSlot      // per window slot; in-flight calls pin their address
	touched []*serve.BinClient // shard clients holding unflushed forwards
}

// routerSlot is one forward of a window.
type routerSlot struct {
	call serve.BinCaller
	req  serve.FrontReq // what went to the shard, shard-side handle and all
	// For a create or resume: the routed session reserved for it, the
	// shard it was placed on, and the resume state's own copies of its
	// slices, for a placement Finish must redo.
	s          *routerSession
	sc         *shardConn
	lastLevels []int
	prevDemand []float64
}

func (r *Router) dropSession(s *routerSession) {
	r.mu.Lock()
	delete(r.sessions, s.handle)
	r.mu.Unlock()
}

// lookupHandle resolves a device-visible handle under the router epoch.
func (r *Router) lookupHandle(handle uint64, epoch uint32) (*routerSession, error) {
	if epoch != 0 && epoch != r.cfg.Epoch {
		return nil, serve.ErrUnknownSession
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, serve.ErrServerClosed
	}
	s, ok := r.sessions[handle]
	if !ok {
		if epoch == 0 {
			return nil, serve.ErrNoSession
		}
		return nil, serve.ErrUnknownSession
	}
	return s, nil
}

// resolve is the shard-side identity of the session a device-visible
// handle names, for one forward.
func (r *Router) resolve(handle uint64, epoch uint32) (*shardConn, uint64, uint32, error) {
	s, err := r.lookupHandle(handle, epoch)
	if err != nil {
		return nil, 0, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, 0, serve.ErrSessionClosed
	}
	if s.moved || s.shard == nil {
		return nil, 0, 0, errMoved()
	}
	return s.shard, s.shardHandle, s.shardEpoch, nil
}

// reserve mints a routed session for key on its current owner: the entry
// a create or resume fills in once the owner answers.
func (r *Router) reserve(key uint64) (*routerSession, *shardConn, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, nil, serve.ErrServerClosed
	}
	owner, ok := r.ring.Owner(key)
	if !ok {
		return nil, nil, fmt.Errorf("%w: no shards in the ring", serve.ErrServerClosed)
	}
	sc := r.shards[owner]
	r.nextHandle++
	s := &routerSession{handle: r.nextHandle, key: key, shard: sc}
	r.sessions[s.handle] = s
	return s, sc, nil
}

// Start starts slot i's forward to the shard that holds req's session,
// unflushed; every deadline of a window starts when its frame is written.
//
//   - A create or resume reserves a routed session on the owner of its
//     key, the device's seed: the only device-identifying field a create
//     carries, and the one thing that survives resumes.
//   - A decide or reward goes to the session's shard under its shard-side
//     handle and epoch. The device's seq is forwarded verbatim, so the
//     shard's dedup cursors see the stream the device's mirror numbers.
//   - A close retires the routed session here, so a later frame for its
//     handle in the same window answers as it would after the close. It is
//     checked against the router epoch and forwarded under the shard's, as
//     a decide is.
//
// Frames of one session go out in frame order on the one shard connection
// that holds it, and the shard serves each frame fully before it reads the
// next, so a session's frames are decided in order end to end.
func (rc *routerConn) Start(i int, req *serve.FrontReq) error {
	for len(rc.slots) <= i {
		rc.slots = append(rc.slots, new(routerSlot))
	}
	sl := rc.slots[i]
	sl.req, sl.s = *req, nil
	switch req.Type {
	case wire.TCreate:
		return rc.startOpen(sl, req.Opts.Seed)
	case wire.TResume:
		// The resume state's slices are valid only during Start, and a
		// placement Finish redoes needs them again.
		sl.lastLevels = append(sl.lastLevels[:0], req.Resume.LastLevels...)
		sl.prevDemand = append(sl.prevDemand[:0], req.Resume.PrevDemand...)
		sl.req.Resume.LastLevels, sl.req.Resume.PrevDemand = sl.lastLevels, sl.prevDemand
		return rc.startOpen(sl, req.Resume.Options.Seed)
	case wire.TClose:
		sc, sh, se, err := rc.r.retire(req.Handle, req.Epoch)
		if err != nil {
			return err
		}
		sl.req.Handle, sl.req.Epoch = sh, se
		rc.forward(sl, sc)
		return nil
	default: // TDecide, TReward
		sc, sh, se, err := rc.r.resolve(req.Handle, req.Epoch)
		if err != nil {
			return err
		}
		sl.req.Handle, sl.req.Epoch = sh, se
		rc.forward(sl, sc)
		return nil
	}
}

// startOpen reserves a routed session for slot sl's open on key's owner
// and starts the open there.
func (rc *routerConn) startOpen(sl *routerSlot, key uint64) error {
	s, sc, err := rc.r.reserve(key)
	if err != nil {
		return err
	}
	sl.s, sl.sc = s, sc
	rc.forward(sl, sc)
	return nil
}

// forward starts slot sl's request on sc's client. Before a forward whose
// shard client must dial first, the forwards already started are flushed:
// a dial can take a whole call timeout, and their deadlines are running.
func (rc *routerConn) forward(sl *routerSlot, sc *shardConn) {
	if !sc.bc.Connected() {
		rc.Flush()
	}
	sl.call.Start(sc.bc, &sl.req)
	if !slices.Contains(rc.touched, sc.bc) {
		rc.touched = append(rc.touched, sc.bc)
	}
}

// retire marks the routed session a device-visible handle and router epoch
// name closed and drops it, returning the shard-side identity to forward
// the close to.
func (r *Router) retire(handle uint64, epoch uint32) (*shardConn, uint64, uint32, error) {
	s, err := r.lookupHandle(handle, epoch)
	if err != nil {
		return nil, 0, 0, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, 0, 0, serve.ErrSessionClosed
	}
	s.closed = true
	sc, sh, se, moved := s.shard, s.shardHandle, s.shardEpoch, s.moved || s.shard == nil
	s.mu.Unlock()
	r.dropSession(s)
	if moved {
		return nil, 0, 0, errMoved()
	}
	return sc, sh, se, nil
}

// Flush writes out the started forwards, each shard client once.
func (rc *routerConn) Flush() {
	for _, bc := range rc.touched {
		bc.Flush()
	}
	rc.touched = rc.touched[:0]
}

// Finish awaits slot i's answer and maps a failure onto what the device
// should see. A create's or resume's answer completes its routed session
// and is renamed into the router's handle and epoch.
func (rc *routerConn) Finish(ctx context.Context, i int) (serve.FrontAns, error) {
	sl := rc.slots[i]
	ans, err := sl.call.Await(ctx)
	if sl.s != nil {
		return rc.finishOpen(ctx, sl, ans, err)
	}
	if err != nil {
		rc.r.forwardErrors.Add(1)
		return serve.FrontAns{}, mapForwardErr(err, true)
	}
	switch sl.req.Type {
	case wire.TDecide:
		rc.r.decideFrames.Add(1)
	case wire.TReward:
		rc.r.rewardsFwd.Add(1)
	}
	return ans, nil
}

// finishOpen records where slot sl's open landed. If the ring moved while
// it was in flight, that shard no longer owns the key: the shard-side
// session is closed and the open placed again, one attempt at a time, on
// the current owner.
func (rc *routerConn) finishOpen(ctx context.Context, sl *routerSlot, ans serve.FrontAns, err error) (serve.FrontAns, error) {
	r := rc.r
	for attempt := 1; ; attempt++ {
		if err != nil {
			r.dropSession(sl.s)
			r.forwardErrors.Add(1)
			return serve.FrontAns{}, mapForwardErr(err, false)
		}
		s := sl.s
		s.mu.Lock()
		if !s.moved {
			s.shardHandle, s.shardEpoch = ans.Info.Handle, ans.Info.Epoch
			s.mu.Unlock()
			if sl.req.Type == wire.TCreate {
				r.sessionsCreated.Add(1)
			} else {
				r.resumesFwd.Add(1)
			}
			ans.Info.Handle, ans.Info.Epoch = s.handle, r.cfg.Epoch
			return ans, nil
		}
		s.mu.Unlock()
		cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		closeOnShard(cctx, &sl.call, movedRef{sc: sl.sc, handle: ans.Info.Handle, epoch: ans.Info.Epoch})
		cancel()
		if attempt == maxPlaceAttempts {
			return serve.FrontAns{}, fmt.Errorf("%w: placement unstable (ring churn)", serve.ErrServerClosed)
		}
		if err := rc.startOpen(sl, sl.s.key); err != nil {
			return serve.FrontAns{}, err
		}
		rc.Flush()
		ans, err = sl.call.Await(ctx)
	}
}
