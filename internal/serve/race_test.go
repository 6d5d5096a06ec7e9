package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"rlpm/internal/wire"
)

// TestConcurrentSessionsMatchSerialOracle is the determinism stress test:
// many goroutines run full create/decide/reward/close lifecycles against
// one server (so their decides run inline side by side against one model),
// and every session's decision stream must be byte-identical to a serial
// oracle that replays the same device-local logic with no server at all.
// Run under -race this also shakes the inline decide path, the session
// registry and the metrics for data races.
func TestConcurrentSessionsMatchSerialOracle(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{MaxBatch: 8})

	const devices = 24
	const steps = 120
	type result struct {
		levels [][]int
		stats  wire.Stats
		err    error
	}
	results := make([]result, devices)

	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			opts := SessionOptions{Seed: uint64(idx) + 1}
			if idx%2 == 1 { // half the fleet explores
				opts.Epsilon = 0.3
				opts.EpsilonMin = 0.05
				opts.EpsilonDecay = 0.995
			}
			sess, err := srv.CreateSession(opts)
			if err != nil {
				results[idx].err = err
				return
			}
			for i, obs := range testObs(m, uint64(idx)*31+5, steps) {
				lv, err := sess.Decide(obs)
				if err != nil {
					results[idx].err = fmt.Errorf("step %d: %w", i, err)
					return
				}
				results[idx].levels = append(results[idx].levels, lv)
				if i%25 == 24 {
					if _, err := sess.RewardSeq(0, float64(-i)); err != nil {
						results[idx].err = fmt.Errorf("reward %d: %w", i, err)
						return
					}
				}
			}
			results[idx].stats, results[idx].err = srv.CloseSessionByHandle(sess.handle, 0)
		}(d)
	}
	wg.Wait()

	for d := 0; d < devices; d++ {
		if results[d].err != nil {
			t.Fatalf("device %d: %v", d, results[d].err)
		}
		if results[d].stats.Decisions != steps {
			t.Fatalf("device %d ledger says %d decisions, ran %d", d, results[d].stats.Decisions, steps)
		}
		opts := SessionOptions{Seed: uint64(d) + 1}
		if d%2 == 1 {
			opts.Epsilon = 0.3
			opts.EpsilonMin = 0.05
			opts.EpsilonDecay = 0.995
		}
		orc := newOracle(m, opts)
		for i, obs := range testObs(m, uint64(d)*31+5, steps) {
			want := orc.decide(obs)
			got := results[d].levels[i]
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("device %d step %d cluster %d: concurrent %d, serial oracle %d",
						d, i, c, got[c], want[c])
				}
			}
		}
	}

	if n := seriesValue(t, srv, "serve_decisions_total", ""); n != devices*steps {
		t.Fatalf("server counted %d decisions, fleet made %d", n, devices*steps)
	}
	created, closed := seriesValue(t, srv, "serve_sessions_created_total", ""), seriesValue(t, srv, "serve_sessions_closed_total", "")
	if live := seriesValue(t, srv, "serve_sessions", ""); created != devices || closed != devices || live != 0 {
		t.Fatalf("session accounting: %d created, %d closed, %d live after all devices closed", created, closed, live)
	}
	if occ := seriesValue(t, srv, "serve_batch_max_occupancy", ""); occ > 8 {
		t.Fatalf("batch occupancy %d exceeded MaxBatch 8", occ)
	}
}

// TestCloseRacesDecides shuts the server down while a fleet is mid-flight:
// every in-flight decide must resolve — either with levels or with
// ErrServerClosed — and nothing may hang or panic.
func TestCloseRacesDecides(t *testing.T) {
	m := testModel(t, 3, 5)
	srv, err := New(m, nil, Config{MaxBatch: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	const devices = 16
	var wg sync.WaitGroup
	errs := make([]error, devices)
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			sess, err := srv.CreateSession(SessionOptions{Seed: uint64(idx)})
			if err != nil {
				if !errors.Is(err, ErrServerClosed) {
					errs[idx] = err
				}
				return
			}
			for _, obs := range testObs(m, uint64(idx)+100, 200) {
				if _, err := sess.Decide(obs); err != nil {
					if !errors.Is(err, ErrServerClosed) {
						errs[idx] = err
					}
					return
				}
			}
		}(d)
	}
	srv.Close()
	wg.Wait()
	for d, err := range errs {
		if err != nil {
			t.Fatalf("device %d: unexpected error %v", d, err)
		}
	}
}
