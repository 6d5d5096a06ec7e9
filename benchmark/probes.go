package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"time"

	"rlpm/internal/bench"
	"rlpm/internal/core"
	"rlpm/internal/rng"
	"rlpm/internal/serve"
	"rlpm/internal/sim"
	"rlpm/internal/soc"
	"rlpm/internal/wire"
)

// probeBatches is how many timed batches a probe runs; it reports their
// median CPU ns/op.
const probeBatches = 5

// probe times iters calls of fn per batch after one untimed warm-up
// batch, on the calling goroutine, in the process's CPU time. CPU time
// leaves out the time the hypervisor gives the cores to other guests: on
// a shared 2-vCPU host the chip-step loop's wall time swung up to 2.8×
// from one second to the next while its CPU time stayed within 10%.
func probe(iters int, fn func()) float64 {
	for i := 0; i < iters; i++ {
		fn()
	}
	per := make([]float64, probeBatches)
	for b := range per {
		t0 := selfCPU()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[b] = float64(selfCPU()-t0) / float64(iters)
	}
	slices.Sort(per)
	return per[probeBatches/2]
}

// probeCodec times one decide round of the wire codec for a K-period frame
// of a two-cluster chip: encode and parse the request, encode and parse
// the answer.
func probeCodec(k int, frame []serve.Observation) float64 {
	obs := make([]wire.Obs, 0, k*len(frame))
	for p := 0; p < k; p++ {
		for _, o := range frame {
			obs = append(obs, wire.Obs{Utilization: o.Utilization, DemandRatio: o.DemandRatio,
				QoS: o.QoS, ClusterQoS: o.ClusterQoS, Critical: o.Critical, Level: o.Level})
		}
	}
	levels := make([]int, len(obs))
	var req wire.DecideReq
	var ok wire.DecideOK
	var rbuf, abuf []byte
	var seq uint64
	return probe(20000, func() {
		seq++
		rbuf = wire.AppendDecideReq(rbuf[:0], 7, 1, seq, obs)
		if err := wire.ParseDecideReq(rbuf, &req); err != nil {
			panic(err) // the codec rejecting its own encoding is a bug
		}
		abuf = wire.AppendDecideOK(abuf[:0], levels)
		if err := wire.ParseDecideOK(abuf, &ok); err != nil {
			panic(err)
		}
	})
}

// probeLookup times FlatTables.LookupManyInto over the served tables with
// a fleet-shaped batch — most lookups on a few hot rows per cluster, the
// rest uniform — and returns ns per lookup.
func probeLookup(snap core.Snapshot, batch int, seed uint64) (float64, error) {
	ft := core.NewFlatTables(snap.Tables)
	if ft == nil {
		return 0, fmt.Errorf("the served tables do not fit the flat layout")
	}
	r := rng.New(seed)
	keys := make([]uint64, batch)
	for j := range keys {
		c := j % ft.Clusters()
		states := len(snap.Tables[c])
		s := r.Intn(states)
		if r.Float64() < 0.9 {
			s = s % 4 * (states / 4)
		}
		keys[j] = ft.Key(c, s, j)
	}
	out := make([]int, batch)
	memo := ft.NewMemo()
	ns := probe(max(1, 200000/batch), func() { ft.LookupManyInto(keys, out, memo) })
	return ns / float64(batch), nil
}

// probeSessionDecide times Session.DecideInto on an in-process server over
// the served model: state encoding plus the batcher round trip, no wire.
func probeSessionDecide(model *serve.Model, frame []serve.Observation) (float64, error) {
	srv, err := serve.New(model, serve.NewSWBackend(model), serve.Config{})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	sess, err := srv.CreateSession(serve.SessionOptions{Seed: 1})
	if err != nil {
		return 0, err
	}
	levels := make([]int, len(frame))
	var derr error
	ns := probe(20000, func() {
		if err := sess.DecideInto(frame, levels); err != nil {
			derr = err
		}
	})
	return ns, derr
}

// probeChipStep times one whole-chip step under a scenario's demands.
func probeChipStep(seed uint64) (float64, error) {
	d, err := newDevice(workloadSpec{K: 1}, seed, 0)
	if err != nil {
		return 0, err
	}
	var l ledger
	var serr error
	ns := probe(20000, func() {
		if err := d.advance(&l); err != nil {
			serr = err
		}
	})
	return ns, serr
}

// probeAgentStep times one tabular Q-learning decide-and-update step.
func probeAgentStep() (float64, error) {
	var freqs []float64
	for _, o := range soc.DefaultChipSpec().Clusters[1].OPPs {
		freqs = append(freqs, o.FreqHz)
	}
	a, err := core.NewAgent(core.DefaultConfig(), len(freqs), 0)
	if err != nil {
		return 0, err
	}
	o := sim.Observation{
		Utilization: 0.7, DemandRatio: 0.9, QoS: 0.97, ClusterQoS: 0.97,
		Level: len(freqs) / 2, NumLevels: len(freqs), FreqsHz: freqs, EnergyJ: 0.1,
		ClusterEnergyJ: 0.05, TempC: 45, PeriodS: periodS,
	}
	return probe(50000, func() { o.Level = a.Step(o) }), nil
}

// evalQuick regenerates the whole offline evaluation in quick mode,
// serially and on every core, and requires byte-identical text. It
// returns the parallel run's CPU time (the process's, which holds steady
// where wall time swings with the host) and the output's sha256.
func evalQuick(seed uint64) (time.Duration, string, error) {
	run := func(parallel int) ([]byte, time.Duration, error) {
		opt := bench.DefaultOptions()
		opt.Quick, opt.Seed, opt.Parallel = true, seed, parallel
		var buf bytes.Buffer
		c0 := selfCPU()
		for _, e := range bench.Experiments() {
			r, err := e.Run(opt)
			if err != nil {
				return nil, 0, fmt.Errorf("%s: %w", e.ID, err)
			}
			r.WriteText(&buf)
		}
		return buf.Bytes(), selfCPU() - c0, nil
	}
	serial, _, err := run(1)
	if err != nil {
		return 0, "", err
	}
	par, el, err := run(runtime.NumCPU())
	if err != nil {
		return 0, "", err
	}
	if !bytes.Equal(serial, par) {
		return el, "", fmt.Errorf("offline evaluation differs between 1 and %d workers", runtime.NumCPU())
	}
	sum := sha256.Sum256(par)
	return el, hex.EncodeToString(sum[:]), nil
}
