package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rlpm/internal/obs"
	"rlpm/internal/wire"
)

// Wire types shared by the handlers and the Go client.

// CreateSessionResponse answers POST /v1/sessions and /v1/sessions/resume.
type CreateSessionResponse struct {
	ID        string `json:"id"`
	Epoch     uint32 `json:"epoch"` // server incarnation that minted ID
	Clusters  int    `json:"clusters"`
	NumLevels []int  `json:"num_levels"`
}

// DecideRequest carries one control period's observations. Epoch and Seq
// are the retry-safety fields: a non-zero epoch pins the session identity
// to one server incarnation, and a non-zero seq lets the server
// deduplicate a retried decide instead of serving it twice. Zero values
// select the legacy unchecked path.
type DecideRequest struct {
	Epoch        uint32        `json:"epoch,omitempty"`
	Seq          uint64        `json:"seq,omitempty"`
	Observations []Observation `json:"observations"`
}

// ResumeSessionRequest carries a ResumeState over JSON — everything a
// client mirror holds, so a fresh server incarnation can re-create the
// session mid-stream. The RNG state words travel as hex strings: JSON
// numbers are float64 and would silently corrupt 64-bit states.
type ResumeSessionRequest struct {
	Options    SessionOptions `json:"options"`
	Epsilon    float64        `json:"epsilon_now"`
	Rng        [4]string      `json:"rng_state,omitempty"`
	Seq        uint64         `json:"seq,omitempty"`
	LastLevels []int          `json:"last_levels,omitempty"`
	PrevDemand []float64      `json:"prev_demand"`
	Decisions  uint64         `json:"decisions,omitempty"`
	Rewards    uint64         `json:"rewards,omitempty"`
	RewardSum  float64        `json:"reward_sum,omitempty"`
}

// resumeRequest is the JSON form of st.
func resumeRequest(st ResumeState) ResumeSessionRequest {
	req := ResumeSessionRequest{
		Options:    st.Options,
		Epsilon:    st.Epsilon,
		Seq:        st.Seq,
		LastLevels: st.LastLevels,
		PrevDemand: st.PrevDemand,
		Decisions:  st.Decisions,
		Rewards:    st.Rewards,
		RewardSum:  st.RewardSum,
	}
	for i, v := range st.Rng {
		req.Rng[i] = strconv.FormatUint(v, 16)
	}
	return req
}

// State converts the request back to a ResumeState. An empty RNG word
// decodes as zero; a malformed one is a bad request.
func (r *ResumeSessionRequest) State() (ResumeState, error) {
	st := ResumeState{
		Options:    r.Options,
		Epsilon:    r.Epsilon,
		Seq:        r.Seq,
		LastLevels: r.LastLevels,
		PrevDemand: r.PrevDemand,
		Decisions:  r.Decisions,
		Rewards:    r.Rewards,
		RewardSum:  r.RewardSum,
	}
	for i, hx := range r.Rng {
		if hx == "" {
			continue
		}
		v, err := strconv.ParseUint(hx, 16, 64)
		if err != nil {
			return ResumeState{}, fmt.Errorf("%w: rng state word %d: %v", ErrBadRequest, i, err)
		}
		st.Rng[i] = v
	}
	return st, nil
}

// DecideResponse carries the chosen OPP level per cluster.
type DecideResponse struct {
	Levels []int `json:"levels"`
}

// RewardRequest reports a device-computed reward. Epoch and Seq are the
// retry-safety fields, mirroring DecideRequest: a non-zero seq lets the
// server deduplicate a retried reward instead of double-counting it (and,
// on a learning server, double-applying its Q-updates). Zero values select
// the legacy unchecked path.
type RewardRequest struct {
	Reward float64 `json:"reward"`
	Epoch  uint32  `json:"epoch,omitempty"`
	Seq    uint64  `json:"seq,omitempty"`
}

// CheckpointResponse answers POST /v1/checkpoint.
type CheckpointResponse struct {
	Path    string `json:"path"`
	Bytes   int64  `json:"bytes"`
	SavedAt string `json:"saved_at"`
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status  string  `json:"status"`
	UptimeS float64 `json:"uptime_s"`
}

// EventsResponse answers GET /debug/events: the retained tail of the
// bounded event log, oldest first. Total counts every event ever
// recorded, so pollers can tell how many the ring evicted.
type EventsResponse struct {
	Total  uint64      `json:"total"`
	Events []obs.Event `json:"events"`
}

// errorResponse is the uniform error body. Code is the machine-readable
// error class (the error table's JSON code) so clients classify without
// string matching; RetryAfterMs carries the overload backoff hint with
// millisecond precision, since the Retry-After header only speaks whole
// seconds.
type errorResponse struct {
	Error        string `json:"error"`
	Code         string `json:"code,omitempty"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// JSONFront serves the five JSON session routes — create, resume,
// decide, reward and close — over FrontConns from a pool, for any process
// that mounts it. A session's id is its handle, printed by sessionID.
type JSONFront struct {
	conns    sync.Pool // FrontConn
	errs     *obs.Counter
	histHTTP *obs.Histogram // a decide request: body read → answer written
}

// NewJSONFront builds a front over FrontConns from open, with its series
// registered in reg under prefix: <prefix>_http_errors_total and
// <prefix>_decide_stage_ns{stage="http"}.
func NewJSONFront(reg *obs.Registry, prefix string, open func() FrontConn) *JSONFront {
	f := &JSONFront{
		errs: reg.NewCounter(prefix+"_http_errors_total", "HTTP requests answered with an error status"),
		histHTTP: reg.NewHistogram(prefix+"_decide_stage_ns", stageHelp,
			obs.Label{Key: "stage", Value: "http"}),
	}
	f.conns.New = func() any { return open() }
	return f
}

// Mount registers the session routes on mux:
//
//	POST   /v1/sessions              create a device session
//	POST   /v1/sessions/resume       re-create a session from client-carried state
//	POST   /v1/sessions/{id}/decide  serve one control period's decision
//	POST   /v1/sessions/{id}/reward  record a device-reported reward
//	DELETE /v1/sessions/{id}         close the session (?epoch=N checks its incarnation), return its ledger
func (f *JSONFront) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/sessions", f.handleCreate)
	mux.HandleFunc("POST /v1/sessions/resume", f.handleResume)
	mux.HandleFunc("POST /v1/sessions/{id}/decide", f.handleDecide)
	mux.HandleFunc("POST /v1/sessions/{id}/reward", f.handleReward)
	mux.HandleFunc("DELETE /v1/sessions/{id}", f.handleClose)
}

// WriteError counts err and answers it as the uniform JSON error body,
// with the status and code the error table gives it — 500 and no code for
// an error the table does not name. The retry hint err carries rides along
// as the body's retry_after_ms and the Retry-After header. Every HTTP
// error a process answers, on the session routes or its own, goes through
// its front.
func (f *JSONFront) WriteError(w http.ResponseWriter, err error) {
	f.errs.Add(1)
	status, code := http.StatusInternalServerError, ""
	if c := classify(err); c != nil {
		status, code = c.status, c.code
	}
	resp := errorResponse{Error: err.Error(), Code: code}
	if retryAfter := RetryAfter(err); retryAfter > 0 {
		resp.RetryAfterMs = retryAfter.Milliseconds()
		// The header rounds up to whole seconds (its resolution); the JSON
		// body carries the precise hint.
		secs := (retryAfter + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
	}
	WriteJSON(w, status, resp)
}

func (f *JSONFront) handleCreate(w http.ResponseWriter, r *http.Request) {
	req := FrontReq{Type: wire.TCreate}
	if err := DecodeBody(r, &req.Opts); err != nil {
		f.WriteError(w, err)
		return
	}
	f.serve(w, r, &req)
}

// handleResume re-creates a session from client-carried mirror state,
// for clients whose server vanished (restart) or forgot them (TTL
// reaping, or a router's handoff).
func (f *JSONFront) handleResume(w http.ResponseWriter, r *http.Request) {
	var body ResumeSessionRequest
	if err := DecodeBody(r, &body); err != nil {
		f.WriteError(w, err)
		return
	}
	req := FrontReq{Type: wire.TResume}
	var err error
	if req.Resume, err = body.State(); err != nil {
		f.WriteError(w, err)
		return
	}
	f.serve(w, r, &req)
}

func (f *JSONFront) handleDecide(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { f.histHTTP.Observe(time.Since(t0).Nanoseconds()) }()
	var body DecideRequest
	if err := DecodeBody(r, &body); err != nil {
		f.WriteError(w, err)
		return
	}
	f.serve(w, r, &FrontReq{Type: wire.TDecide, Handle: handleOf(r.PathValue("id")),
		Epoch: body.Epoch, Seq: body.Seq, Obs: body.Observations})
}

func (f *JSONFront) handleReward(w http.ResponseWriter, r *http.Request) {
	var body RewardRequest
	if err := DecodeBody(r, &body); err != nil {
		f.WriteError(w, err)
		return
	}
	f.serve(w, r, &FrontReq{Type: wire.TReward, Handle: handleOf(r.PathValue("id")),
		Epoch: body.Epoch, Seq: body.Seq, Reward: body.Reward})
}

// handleClose closes the session. The query's epoch names the incarnation
// the id came from, as a decide body's does; none is the unchecked path.
func (f *JSONFront) handleClose(w http.ResponseWriter, r *http.Request) {
	var epoch uint64
	if q := r.URL.Query().Get("epoch"); q != "" {
		var err error
		if epoch, err = strconv.ParseUint(q, 10, 32); err != nil {
			f.WriteError(w, fmt.Errorf("%w: epoch %q", ErrBadRequest, q))
			return
		}
	}
	f.serve(w, r, &FrontReq{Type: wire.TClose, Handle: handleOf(r.PathValue("id")), Epoch: uint32(epoch)})
}

// serve runs req as a window of one on a pooled conn and answers it by its
// type: a create or resume with the session's id, epoch and the served
// chip's shape, a decide with its levels, a reward or close with the
// session's ledger. Only a canonical id reaches a session, so the id in
// the path is the session's own.
func (f *JSONFront) serve(w http.ResponseWriter, r *http.Request, req *FrontReq) {
	c := f.conns.Get().(FrontConn)
	defer f.conns.Put(c)
	err := c.Start(0, req)
	var ans FrontAns
	if err == nil {
		c.Flush()
		ans, err = c.Finish(r.Context(), 0)
	}
	if err != nil {
		f.WriteError(w, err)
		return
	}
	switch req.Type {
	case wire.TCreate, wire.TResume:
		WriteJSON(w, http.StatusOK, CreateSessionResponse{
			ID:        sessionID(ans.Info.Handle),
			Epoch:     ans.Info.Epoch,
			Clusters:  len(ans.Info.NumLevels),
			NumLevels: ans.Info.NumLevels,
		})
	case wire.TDecide:
		WriteJSON(w, http.StatusOK, DecideResponse{Levels: ans.Levels})
	default: // TReward, TClose
		WriteJSON(w, http.StatusOK, statsFromWire(r.PathValue("id"), ans.Stats))
	}
}

// Handler returns the server's HTTP API: the JSONFront's session routes
// and
//
//	POST   /v1/checkpoint            persist the model to the configured path
//	GET    /metrics                  Prometheus text exposition of the registry
//	GET    /debug/events             structured runtime event log (JSON)
//	GET    /debug/obs                registry snapshot for fleet scrape-merge (JSON)
//	GET    /healthz                  liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.json.Mount(mux)
	mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/events", s.handleEvents)
	mux.HandleFunc("GET /debug/obs", s.handleObs)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	n, err := s.publishCheckpoint(false)
	if err != nil {
		s.json.WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, CheckpointResponse{
		Path:    s.cfg.CheckpointPath,
		Bytes:   n,
		SavedAt: time.Now().UTC().Format(time.RFC3339),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// handleObs serves the registry as a process-portable obs.RegistrySnapshot
// — the scrape endpoint the shard router merges across the fleet.
func (s *Server) handleObs(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.reg.Snapshot())
}

func (s *Server) handleEvents(w http.ResponseWriter, _ *http.Request) {
	resp := EventsResponse{Total: s.events.Total(), Events: s.events.Events()}
	if resp.Events == nil {
		resp.Events = []obs.Event{}
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok", UptimeS: ageSeconds(s.start)})
}

// DecodeBody parses a JSON request body into v. An absent body decodes to
// the zero value (create-session with defaults); malformed JSON is a bad
// request.
func DecodeBody(r *http.Request, v any) error {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil || errors.Is(err, io.EOF) {
		return nil
	}
	return fmt.Errorf("%w: body: %v", ErrBadRequest, err)
}
