package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is the Go client for a pmserve instance — the library cmd/pmload,
// the harnesses, and the tests drive the server through, so every
// consumer exercises the same wire path a real device agent would.
//
// Like BinClient it is self-healing: error responses map onto the serve
// sentinels, sessions retry retryable failures with backoff (honouring the
// server's Retry-After hints), and a session the server no longer knows is
// transparently re-created from its mirror.
type Client struct {
	base string
	hc   *http.Client
	pol  *retryPolicy
}

// NewClient builds a client for the server at base (e.g.
// "http://127.0.0.1:7421").
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{Timeout: 30 * time.Second},
		pol:  newRetryPolicy(uint64(time.Now().UnixNano())),
	}
}

// SetTransport swaps the HTTP transport — the chaos tests inject their
// fault-wrapping round-tripper here.
func (c *Client) SetTransport(rt http.RoundTripper) { c.hc.Transport = rt }

// SetCallTimeout adjusts the per-request deadline (default 30s).
func (c *Client) SetCallTimeout(d time.Duration) { c.hc.Timeout = d }

// SetRetryBudget adjusts the total retry window per logical call
// (default 30s). 0 disables retries entirely.
func (c *Client) SetRetryBudget(d time.Duration) { c.pol.budget = d }

// TransportStats reports how hard the resilience machinery worked.
func (c *Client) TransportStats() BinClientStats {
	return BinClientStats{Retries: c.pol.retries.Load(), Resumes: c.pol.resumes.Load()}
}

// CloseIdleConnections releases pooled keep-alive connections — leak
// checks call this so idle HTTP goroutines do not read as leaks.
func (c *Client) CloseIdleConnections() {
	type closeIdler interface{ CloseIdleConnections() }
	rt := c.hc.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	if ci, ok := rt.(closeIdler); ok {
		ci.CloseIdleConnections()
	}
}

// do issues one JSON request and decodes the JSON answer into out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// The server content-negotiates /metrics (Prometheus text by
	// default); this client always speaks JSON.
	req.Header.Set("Accept", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e)
		return httpErr(method, path, resp, e)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		// A 200 whose body cannot be read or parsed — a server dying
		// mid-response truncates exactly here. The request's fate is
		// unknown, which is what ErrConnLost means; the retry dedups.
		return fmt.Errorf("%w: reading %s %s response: %v", ErrConnLost, method, path, err)
	}
	return nil
}

// httpErr turns an error response into the serve sentinel the error
// table gives its machine-readable code, carrying any backoff hint as a
// BackoffError. Unknown codes degrade to an untyped formatted error.
func httpErr(method, path string, resp *http.Response, e errorResponse) error {
	var base error
	for i := range errTable {
		if errTable[i].code == e.Code {
			base = errTable[i].err
			break
		}
	}
	// A connection severed mid-response can truncate the error body,
	// leaving only the status line. Fall back to the status code so a
	// restart-window 404 still routes to the resume path instead of
	// surfacing as an untyped (unretryable) failure. The table is read
	// backwards so a bare status names the least specific sentinel it can
	// mean: 404 is ErrNoSession, not its resumable refinement.
	if e.Code == "" {
		for i := len(errTable) - 1; i >= 0; i-- {
			if errTable[i].status == resp.StatusCode {
				base = errTable[i].err
				break
			}
		}
	}
	msg := e.Error
	if msg == "" {
		msg = fmt.Sprintf("HTTP %d", resp.StatusCode)
	}
	var err error
	if base != nil {
		err = fmt.Errorf("%w: %s %s: %s", base, method, path, msg)
	} else {
		err = fmt.Errorf("serve: %s %s: %s (HTTP %d)", method, path, msg, resp.StatusCode)
	}
	ra := time.Duration(e.RetryAfterMs) * time.Millisecond
	if ra == 0 {
		if h := resp.Header.Get("Retry-After"); h != "" {
			if secs, perr := strconv.Atoi(h); perr == nil && secs > 0 {
				ra = time.Duration(secs) * time.Second
			}
		}
	}
	if ra > 0 {
		err = &BackoffError{Err: err, RetryAfter: ra}
	}
	return err
}

// Healthz checks server liveness.
func (c *Client) Healthz(ctx context.Context) error {
	var h HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return err
	}
	if h.Status != "ok" {
		return fmt.Errorf("serve: health status %q", h.Status)
	}
	return nil
}

// WaitHealthy polls /healthz until the server answers or the deadline
// passes — the startup barrier load tests use instead of sleeps.
func (c *Client) WaitHealthy(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		if last = c.Healthz(ctx); last == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
	return fmt.Errorf("serve: server not healthy after %v: %w", timeout, last)
}

// Metrics fetches the server's observable state.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	var m Metrics
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &m)
	return m, err
}

// Events fetches the server's structured runtime event log.
func (c *Client) Events(ctx context.Context) (EventsResponse, error) {
	var e EventsResponse
	err := c.do(ctx, http.MethodGet, "/debug/events", nil, &e)
	return e, err
}

// SaveCheckpoint asks the server to persist its model.
func (c *Client) SaveCheckpoint(ctx context.Context) (CheckpointResponse, error) {
	var cr CheckpointResponse
	err := c.do(ctx, http.MethodPost, "/v1/checkpoint", nil, &cr)
	return cr, err
}

// RemoteSession is a device session held over the wire.
type RemoteSession struct {
	c *Client
	// ID is the server-assigned session identifier.
	ID string
	// Epoch is the server incarnation that minted ID.
	Epoch uint32
	// Clusters and NumLevels describe the served chip.
	Clusters  int
	NumLevels []int

	mirror *sessionMirror // nil: no retry dedup or resume
	closed bool
}

// CreateSession opens a device session. The session carries a mirror of
// the server-side state, so its calls retry safely and survive server
// restarts via resume.
func (c *Client) CreateSession(ctx context.Context, opts SessionOptions) (*RemoteSession, error) {
	s := &RemoteSession{c: c}
	open := func() error {
		var resp CreateSessionResponse
		if err := c.do(ctx, http.MethodPost, "/v1/sessions", opts, &resp); err != nil {
			return err
		}
		s.ID, s.Epoch, s.Clusters, s.NumLevels = resp.ID, resp.Epoch, resp.Clusters, resp.NumLevels
		return nil
	}
	if err := runCall(ctx, c.pol, false, nil, open, nil); err != nil {
		return nil, err
	}
	s.mirror = newSessionMirror(opts, s.NumLevels)
	return s, nil
}

// resume re-creates the session on the current server incarnation from
// the mirror, then adopts the fresh id/epoch.
func (s *RemoteSession) resume(ctx context.Context) error {
	var resp CreateSessionResponse
	if err := s.c.do(ctx, http.MethodPost, "/v1/sessions/resume", resumeRequest(s.mirror.resumeState()), &resp); err != nil {
		return err
	}
	s.ID, s.Epoch = resp.ID, resp.Epoch
	s.c.pol.resumes.Add(1)
	return nil
}

// NumClusters returns the served chip's cluster count.
func (s *RemoteSession) NumClusters() int { return s.Clusters }

// Decide serves one control period. With a mirror the request carries the
// session epoch and next sequence number, so retries deduplicate
// server-side and a decide that straddles a server restart resumes the
// session and replays byte-identically.
func (s *RemoteSession) Decide(ctx context.Context, obs []Observation) ([]int, error) {
	var seq uint64
	if s.mirror != nil {
		seq = s.mirror.nextSeq()
	}
	var levels []int
	err := runCall(ctx, s.c.pol, s.closed, s.mirror, func() error {
		var resp DecideResponse
		err := s.c.do(ctx, http.MethodPost, "/v1/sessions/"+s.ID+"/decide",
			DecideRequest{Epoch: s.Epoch, Seq: seq, Observations: obs}, &resp)
		levels = resp.Levels
		return err
	}, s.resume)
	if err != nil {
		return nil, err
	}
	if s.mirror != nil {
		s.mirror.ackDecide(obs, levels)
	}
	return levels, nil
}

// Reward reports a device-computed reward. With a mirror the request
// carries the session epoch and the next reward sequence number, so a
// retry after a lost ack deduplicates server-side — the ledger counts it
// once and a learning server applies its Q-updates once.
func (s *RemoteSession) Reward(ctx context.Context, r float64) (SessionStats, error) {
	var seq uint64
	if s.mirror != nil {
		seq = s.mirror.nextRewardSeq()
	}
	var st SessionStats
	err := runCall(ctx, s.c.pol, s.closed, s.mirror, func() error {
		var epoch uint32
		if s.mirror != nil {
			epoch = s.Epoch // read per attempt: a resume mints a fresh epoch
		}
		return s.c.do(ctx, http.MethodPost, "/v1/sessions/"+s.ID+"/reward",
			RewardRequest{Reward: r, Epoch: epoch, Seq: seq}, &st)
	}, s.resume)
	if err == nil && s.mirror != nil {
		s.mirror.ackReward(r)
	}
	return st, err
}

// Close ends the session and returns its final ledger. After a
// successful close the session is dead client-side: nothing resumes it.
func (s *RemoteSession) Close(ctx context.Context) (SessionStats, error) {
	var st SessionStats
	err := runCall(ctx, s.c.pol, s.closed, s.mirror, func() error {
		return s.c.do(ctx, http.MethodDelete, "/v1/sessions/"+s.ID, nil, &st)
	}, s.resume)
	if err == nil {
		s.closed = true
		s.mirror = nil
	}
	return st, err
}
