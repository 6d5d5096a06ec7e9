package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rlpm/internal/core"
)

// TestSaveCheckpointDurabilitySequence asserts the write→sync→rename→
// dir-sync ordering through recording hooks, so the fsync-the-parent-dir
// fix can never silently regress. The write half: the file holds every
// byte of the checkpoint when it is synced, so the encoder's buffer was
// flushed before the fsync.
func TestSaveCheckpointDurabilitySequence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "policy.ckpt")
	_, snap := testSnapshot(t, 3)

	var seq []string
	var renamedTo, syncedDir string
	var syncedSize int64
	real := osHooks()
	rec := fsHooks{
		syncFile: func(f *os.File) error {
			seq = append(seq, "sync-file")
			info, err := f.Stat()
			if err != nil {
				return err
			}
			syncedSize = info.Size()
			return real.syncFile(f)
		},
		rename: func(oldpath, newpath string) error {
			seq = append(seq, "rename")
			renamedTo = newpath
			return real.rename(oldpath, newpath)
		},
		syncDir: func(d string) error {
			seq = append(seq, "sync-dir")
			syncedDir = d
			return real.syncDir(d)
		},
	}
	n, err := saveCheckpoint(path, snap.State, core.NewFlatTables(snap.Tables), rec)
	if err != nil {
		t.Fatalf("saveCheckpoint: %v", err)
	}
	if n <= 0 {
		t.Fatalf("saved %d bytes", n)
	}
	if syncedSize != n {
		t.Fatalf("the file held %d of the checkpoint's %d bytes when it was synced", syncedSize, n)
	}
	want := []string{"sync-file", "rename", "sync-dir"}
	if len(seq) != len(want) {
		t.Fatalf("hook sequence %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("hook sequence %v, want %v", seq, want)
		}
	}
	if renamedTo != path {
		t.Fatalf("renamed to %q, want %q", renamedTo, path)
	}
	if syncedDir != dir {
		t.Fatalf("synced dir %q, want the checkpoint's parent %q", syncedDir, dir)
	}
	if _, err := LoadModel(path, core.DefaultConfig()); err != nil {
		t.Fatalf("reloading: %v", err)
	}

	// A failing dir sync must fail the save: the caller cannot report
	// durability it does not have.
	rec.syncDir = func(string) error { return os.ErrPermission }
	if _, err := saveCheckpoint(path, snap.State, core.NewFlatTables(snap.Tables), rec); err == nil {
		t.Fatal("save reported success with a failed directory sync")
	}
}

// TestAgeClampsNeverNegative covers the backwards-NTP-step hazard: age
// gauges clamp at zero even for future timestamps that lost their
// monotonic reading.
func TestAgeClampsNeverNegative(t *testing.T) {
	// Round(0) strips the monotonic clock, so this timestamp really is in
	// the wall-clock future — time.Since goes negative without the clamp.
	future := time.Now().Add(time.Hour).Round(0)
	if got := ageSeconds(future); got != 0 {
		t.Fatalf("ageSeconds(future) = %v, want 0", got)
	}
	if got := ageSeconds(time.Now().Add(-time.Millisecond)); got <= 0 {
		t.Fatalf("ageSeconds(past) = %v, want > 0", got)
	}

	m := testModel(t, 3)
	srv := newTestServer(t, m, nil, Config{})
	srv.MarkCheckpoint(future)
	met := srv.Registry().Snapshot()
	if age := met.Value("serve_checkpoint_age_seconds", ""); age != 0 {
		t.Fatalf("serve_checkpoint_age_seconds %v with a future checkpoint time, want clamp to 0", age)
	}
	if up := met.Find("serve_uptime_seconds", ""); up == nil || up.Value < 0 {
		t.Fatalf("serve_uptime_seconds %+v went negative", up)
	}

	// No checkpoint at all stays the -1 sentinel, not 0.
	met = newTestServer(t, testModel(t, 3), nil, Config{}).Registry().Snapshot()
	if age := met.Value("serve_checkpoint_age_seconds", ""); age != -1 {
		t.Fatalf("serve_checkpoint_age_seconds %v with no checkpoint, want -1", age)
	}
}

// TestMetricsSnapshotConcurrent hammers the registry's Snapshot, the
// Prometheus exposition and the event log while sessions decide and close
// — run under -race, this is the data-race gate for the observability
// wiring.
func TestMetricsSnapshotConcurrent(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{})
	seq := testObs(m, 5, 40)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				sess, err := srv.CreateSession(SessionOptions{Epsilon: 0.2, Seed: seed})
				if err != nil {
					return // server closed under us: fine
				}
				for _, obs := range seq {
					if _, err := sess.Decide(obs); err != nil {
						return
					}
				}
				srv.CloseSessionByHandle(sess.handle, 0)
			}
		}(uint64(w + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = srv.Registry().Snapshot()
			_ = srv.Registry().WritePrometheus(io.Discard)
			_ = srv.Events().Events()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		srv.Close() // close with decides in flight
	}()
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestMetricsContentNegotiation pins GET /metrics as Prometheus text
// exposition with the per-stage decide histograms populated, whatever the
// client accepts: the registry is the one metrics view, and a client that
// asks for JSON gets the same text.
func TestMetricsContentNegotiation(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ctx := context.Background()
	client := NewClient(hs.URL)

	sess, err := client.CreateSession(ctx, SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	for _, obs := range testObs(m, 9, 10) {
		if _, err := sess.Decide(ctx, obs); err != nil {
			t.Fatalf("decide: %v", err)
		}
	}

	scrape := func(accept string) string {
		t.Helper()
		req, _ := http.NewRequest("GET", hs.URL+"/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
			t.Fatalf("content type %q with Accept %q, want text exposition 0.0.4", ct, accept)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	text := scrape("")
	for _, want := range []string{
		"# TYPE serve_decide_stage_ns histogram",
		`serve_decide_stage_ns_count{stage="http"} 10`,
		`serve_decide_stage_ns_count{stage="backend"} 10`,
		"# TYPE serve_decides_inflight gauge",
		"serve_decides_inflight 0",
		"serve_batch_rejected_total 0",
		"# TYPE serve_decisions_total counter",
		"serve_decisions_total 10",
		"serve_lookups_total 20",
		"serve_sessions 1",
		"# TYPE serve_uptime_seconds gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// The queue stages went with the batcher: a decide is served inline.
	for _, stage := range []string{"queue_wait", "assemble"} {
		if strings.Contains(text, `stage="`+stage+`"`) {
			t.Fatalf("exposition still carries the %s stage", stage)
		}
	}

	// A client asking for JSON gets the same text exposition.
	if got := scrape("application/json"); !strings.Contains(got, "\nserve_decisions_total 10\n") {
		t.Fatalf("exposition with Accept: application/json misses serve_decisions_total 10:\n%s", got)
	}
}

// TestEventsEndpoint drives a checkpoint save and reads the event back
// through GET /debug/events.
func TestEventsEndpoint(t *testing.T) {
	dir := t.TempDir()
	m := testModel(t, 3)
	srv := newTestServer(t, m, nil, Config{CheckpointPath: filepath.Join(dir, "m.ckpt")})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ctx := context.Background()
	client := NewClient(hs.URL)

	// Empty log: still valid JSON with an empty array, not null.
	resp, err := http.Get(hs.URL + "/debug/events")
	if err != nil {
		t.Fatalf("GET /debug/events: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(raw), `"events":null`) {
		t.Fatalf("empty event log rendered null: %s", raw)
	}

	if err := client.do(ctx, http.MethodPost, "/v1/checkpoint", nil, nil); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	var ev EventsResponse
	if err := client.do(ctx, http.MethodGet, "/debug/events", nil, &ev); err != nil {
		t.Fatalf("GET /debug/events: %v", err)
	}
	if ev.Total == 0 || len(ev.Events) == 0 {
		t.Fatalf("no events after a checkpoint save: %+v", ev)
	}
	found := false
	for _, e := range ev.Events {
		if e.Kind == "checkpoint" && strings.Contains(e.Msg, "saved") {
			found = true
		}
		if e.Seq == 0 || e.At.IsZero() {
			t.Fatalf("event %+v missing seq or timestamp", e)
		}
	}
	if !found {
		t.Fatalf("no checkpoint-saved event in %+v", ev.Events)
	}
}
