package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"rlpm/internal/wire"
)

// scriptedBinServer is a binary server that answers every create with
// levels and every decide with decided, whatever the request asked for.
func scriptedBinServer(t *testing.T, levels, decided []int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var hdr [wire.HeaderSize]byte
				var payload []byte
				for {
					h, p, err := wire.ReadFrame(conn, &hdr, payload)
					payload = p
					if err != nil {
						return
					}
					out := wire.BeginFrame(nil)
					if h.Type == wire.TCreate {
						out = wire.AppendCreateOK(out, 1, 1, levels)
					} else {
						out = wire.AppendDecideOK(out, decided)
					}
					if _, err := conn.Write(wire.FinishFrame(out, h.Type+1, h.ReqID)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// scriptedJSONServer is the HTTP counterpart of scriptedBinServer.
func scriptedJSONServer(t *testing.T, levels, decided []int) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, CreateSessionResponse{ID: sessionID(1), Epoch: 1, Clusters: len(levels), NumLevels: levels})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/decide", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, DecideResponse{Levels: decided})
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs.URL
}

// TestClientRefusesMalformedAnswers holds both clients to the shape of the
// server's answers: a create answered with no clusters fails the open,
// and a decide answered with a level count other than its observation
// count fails with nothing acknowledged — the mirror stays where it was,
// so the session's state never disagrees with what it was served.
func TestClientRefusesMalformedAnswers(t *testing.T) {
	cases := []struct {
		name            string
		levels, decided []int
		periods         int // 0: the open itself must fail
	}{
		{"create with no clusters", nil, nil, 0},
		{"2-period decide answered with 1 level", []int{3, 5}, []int{1}, 2},
		{"1-period decide answered short", []int{3, 5}, []int{1}, 1},
	}
	for _, proto := range []string{"bin", "json"} {
		for _, tc := range cases {
			t.Run(proto+"/"+tc.name, func(t *testing.T) {
				ctx := context.Background()
				var open func(context.Context, SessionOptions) (*RemoteSession, error)
				if proto == "bin" {
					bc := NewBinClient(scriptedBinServer(t, tc.levels, tc.decided))
					defer bc.Close()
					open = bc.OpenSession
				} else {
					hc := NewClient(scriptedJSONServer(t, tc.levels, tc.decided))
					defer hc.CloseIdleConnections()
					open = hc.CreateSession
				}
				sess, err := open(ctx, SessionOptions{Epsilon: 0.5, Seed: 3})
				if tc.periods == 0 {
					if !errors.Is(err, errMalformedAnswer) {
						t.Fatalf("open: %v, want a malformed-answer error", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				before := sess.mirror.resumeState()
				obs := make([]Observation, tc.periods*len(tc.levels))
				if lv, err := sess.DecideMany(ctx, obs); !errors.Is(err, errMalformedAnswer) {
					t.Fatalf("decide answered %v, %v; want a malformed-answer error", lv, err)
				}
				if after := sess.mirror.resumeState(); !reflect.DeepEqual(before, after) {
					t.Fatalf("a refused answer advanced the mirror: %+v, was %+v", after, before)
				}
			})
		}
	}
}
