// HTTP front: the router's JSON API. Devices get the session routes a
// shard serves (serve.JSONFront over a routerConn), /metrics and /healthz,
// plus the fleet views only a router can offer: GET /v1/ring (membership +
// placement contract) and a /metrics exposition of one fleet snapshot: the
// router's own series, a per-shard rollup, and every shard's scraped
// registry merged into one fleet-wide view.
package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"rlpm/internal/obs"
	"rlpm/internal/serve"
)

// RingResponse answers GET /v1/ring: everything a peer process needs to
// reproduce the router's placement decisions byte-for-byte.
type RingResponse struct {
	Seed   uint64      `json:"seed"`
	VNodes int         `json:"vnodes"`
	Epoch  uint32      `json:"epoch"`
	Shards []ShardSpec `json:"shards"`
}

// Handler returns the router's HTTP API.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	r.json.Mount(mux)
	mux.HandleFunc("GET /v1/ring", r.handleRing)
	mux.HandleFunc("POST /v1/shards", r.handleAddShard)
	mux.HandleFunc("DELETE /v1/shards/{name}", r.handleRemoveShard)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	return mux
}

// writeBadRequest answers a failed membership change as a client fault:
// whatever the cause, it is the admin's request that must change.
func (r *Router) writeBadRequest(w http.ResponseWriter, err error) {
	r.json.WriteError(w, fmt.Errorf("%w: %v", serve.ErrBadRequest, err))
}

func (r *Router) handleRing(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	resp := RingResponse{
		Seed:   r.cfg.RingSeed,
		VNodes: r.ring.vnodes,
		Epoch:  r.cfg.Epoch,
	}
	for _, name := range r.ring.Members() {
		resp.Shards = append(resp.Shards, r.shards[name].spec)
	}
	r.mu.Unlock()
	serve.WriteJSON(w, http.StatusOK, resp)
}

// handleAddShard / handleRemoveShard are the admin face of rebalancing.
func (r *Router) handleAddShard(w http.ResponseWriter, req *http.Request) {
	var spec ShardSpec
	if err := serve.DecodeBody(req, &spec); err != nil {
		r.json.WriteError(w, err)
		return
	}
	if err := r.AddShard(spec); err != nil {
		r.writeBadRequest(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "added", "shard": spec.Name})
}

func (r *Router) handleRemoveShard(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("name")
	if err := r.RemoveShard(name); err != nil {
		r.writeBadRequest(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "removed", "shard": name})
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	up := time.Since(r.start).Seconds()
	if up < 0 {
		up = 0
	}
	serve.WriteJSON(w, http.StatusOK, serve.HealthResponse{Status: "ok", UptimeS: up})
}

// shardScrape is one shard's scraped registry snapshot.
type shardScrape struct {
	spec ShardSpec
	snap obs.RegistrySnapshot
	err  error
}

// scrapeFleet GETs every shard's /debug/obs concurrently and returns the
// per-shard snapshots in ring order. Shards without an HTTP address or
// that fail to answer come back with err set — the merge skips them and
// the rollup marks them down.
func (r *Router) scrapeFleet(ctx context.Context) []shardScrape {
	specs := r.Shards()
	out := make([]shardScrape, len(specs))
	done := make(chan int, len(specs))
	for i, sp := range specs {
		out[i].spec = sp
		go func(i int, sp ShardSpec) {
			defer func() { done <- i }()
			if sp.HTTPAddr == "" {
				out[i].err = fmt.Errorf("shard %s: no http addr", sp.Name)
				return
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+sp.HTTPAddr+"/debug/obs", nil)
			if err != nil {
				out[i].err = err
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				out[i].err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				out[i].err = fmt.Errorf("shard %s: scrape status %d", sp.Name, resp.StatusCode)
				return
			}
			out[i].err = json.NewDecoder(resp.Body).Decode(&out[i].snap)
		}(i, sp)
	}
	for range specs {
		<-done
	}
	return out
}

// fleetSnapshot scrapes the fleet live and builds the router's one
// metrics snapshot: its own registry, the per-shard rollup
// (router_shard_up, router_shard_sessions, router_shard_decisions_total,
// one series each per shard), and every answering shard's registry merged
// — counters summed and histograms bucket-merged, one series set for
// dashboards that want the fleet as if it were one process.
func (r *Router) fleetSnapshot(ctx context.Context) obs.RegistrySnapshot {
	scrapes := r.scrapeFleet(ctx)
	rollup := obs.NewRegistry()
	for i := range scrapes {
		sc := &scrapes[i]
		shard := obs.Label{Key: "shard", Value: sc.spec.Name}
		up := rollup.NewGauge("router_shard_up", "whether the shard answered the last scrape", shard)
		sessions := rollup.NewGauge("router_shard_sessions", "live sessions per shard at the last scrape", shard)
		decisions := rollup.NewCounter("router_shard_decisions_total", "decide periods served per shard at the last scrape", shard)
		if sc.err != nil {
			r.scrapeErrors.Add(1)
			continue
		}
		up.Set(1)
		sessions.Set(sc.snap.Value("serve_sessions", ""))
		decisions.Add(uint64(sc.snap.Value("serve_decisions_total", "")))
	}
	fleet := rollup.Snapshot()
	for i := range scrapes {
		if scrapes[i].err == nil && fleet.Merge(&scrapes[i].snap) != nil {
			r.scrapeErrors.Add(1)
		}
	}
	snap := r.reg.Snapshot() // after the scrape errors are counted
	_ = snap.Merge(&fleet)   // disjoint names: shards register no router_ series
	return snap
}

// handleMetrics renders the fleet snapshot, scraped within 2 s.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	ctx, cancel := context.WithTimeout(req.Context(), 2*time.Second)
	defer cancel()
	snap := r.fleetSnapshot(ctx)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = snap.WritePrometheus(w)
}
