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

	"rlpm/internal/wire"
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

// SetTransport swaps the HTTP transport, for example for one with its own
// per-host connection limits, as the fleet benchmark sets.
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

// CreateSession opens a device session over HTTP/JSON. The session
// carries a mirror of the server-side state, so its calls retry safely and
// survive server restarts via resume.
func (c *Client) CreateSession(ctx context.Context, opts SessionOptions) (*RemoteSession, error) {
	return openSession(ctx, c, opts)
}

// attempt sends req as the route JSONFront serves for its type, and reads
// the answer back into the front's shape: a create or resume's id becomes
// the handle it prints, a reward or close's ledger the wire stats.
func (c *Client) attempt(ctx context.Context, s *RemoteSession, req FrontReq) (FrontAns, error) {
	var ans FrontAns
	var st SessionStats
	var err error
	switch req.Type {
	case wire.TCreate, wire.TResume:
		var resp CreateSessionResponse
		if req.Type == wire.TCreate {
			err = c.do(ctx, http.MethodPost, "/v1/sessions", req.Opts, &resp)
		} else {
			err = c.do(ctx, http.MethodPost, "/v1/sessions/resume", resumeRequest(req.Resume), &resp)
		}
		if err != nil {
			return ans, err
		}
		h := handleOf(resp.ID)
		if h == 0 {
			return ans, fmt.Errorf("%w: session id %q", errMalformedAnswer, resp.ID)
		}
		ans.Info = BinSessionInfo{Handle: h, Epoch: resp.Epoch, NumLevels: resp.NumLevels}
	case wire.TDecide:
		var resp DecideResponse
		err = c.do(ctx, http.MethodPost, "/v1/sessions/"+s.ID+"/decide",
			DecideRequest{Epoch: req.Epoch, Seq: req.Seq, Observations: req.Obs}, &resp)
		ans.Levels = resp.Levels
	case wire.TReward:
		err = c.do(ctx, http.MethodPost, "/v1/sessions/"+s.ID+"/reward",
			RewardRequest{Reward: req.Reward, Epoch: req.Epoch, Seq: req.Seq}, &st)
		ans.Stats = statsToWire(st)
	default: // TClose
		err = c.do(ctx, http.MethodDelete, "/v1/sessions/"+s.ID+"?epoch="+strconv.FormatUint(uint64(req.Epoch), 10), nil, &st)
		ans.Stats = statsToWire(st)
	}
	return ans, err
}

func (c *Client) policy() *retryPolicy { return c.pol }
