package core

import (
	"bytes"
	"errors"
	"testing"

	"rlpm/internal/sim"
	"rlpm/internal/soc"
	"rlpm/internal/workload"
)

func twoClusterObs(level0, level1 int) []sim.Observation {
	mk := func(lvl, n int) sim.Observation {
		return sim.Observation{
			Utilization:    0.6,
			DemandRatio:    0.7,
			QoS:            0.98,
			ClusterQoS:     0.98,
			Level:          lvl,
			NumLevels:      n,
			EnergyJ:        0.1,
			ClusterEnergyJ: 0.05,
			PeriodS:        0.05,
		}
	}
	return []sim.Observation{mk(level0, 8), mk(level1, 9)}
}

func TestNewPolicyValidates(t *testing.T) {
	if _, err := NewPolicy(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := NewPolicy(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestMustPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustPolicy with bad config did not panic")
		}
	}()
	MustPolicy(Config{})
}

func TestPolicyLazyAgentCreation(t *testing.T) {
	p := MustPolicy(DefaultConfig())
	if p.agents != nil {
		t.Fatal("agents exist before first Decide")
	}
	levels := p.Decide(twoClusterObs(0, 0))
	if len(levels) != 2 {
		t.Fatalf("levels = %v", levels)
	}
	agents := p.agents
	if len(agents) != 2 {
		t.Fatalf("agents = %d", len(agents))
	}
	if agents[0].NumActions() != 8 || agents[1].NumActions() != 9 {
		t.Fatalf("agent action counts %d/%d", agents[0].NumActions(), agents[1].NumActions())
	}
}

func TestPolicyPanicsOnClusterCountChange(t *testing.T) {
	p := MustPolicy(DefaultConfig())
	p.Decide(twoClusterObs(0, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("cluster count change did not panic")
		}
	}()
	p.Decide(twoClusterObs(0, 0)[:1])
}

func TestPolicyName(t *testing.T) {
	if got := MustPolicy(DefaultConfig()).Name(); got != "rl-policy" {
		t.Fatalf("Name = %q", got)
	}
}

func TestPolicyMeanEpsilonBeforeAndAfter(t *testing.T) {
	p := MustPolicy(DefaultConfig())
	if got := p.MeanEpsilon(); got != DefaultConfig().EpsilonStart {
		t.Fatalf("pre-Decide MeanEpsilon = %v", got)
	}
	for i := 0; i < 3000; i++ {
		p.Decide(twoClusterObs(i%8, i%9))
	}
	if got := p.MeanEpsilon(); got >= DefaultConfig().EpsilonStart {
		t.Fatalf("epsilon did not decay: %v", got)
	}
}

func TestPolicyMeanTD(t *testing.T) {
	p := MustPolicy(DefaultConfig())
	if p.MeanTD() != 0 {
		t.Fatal("pre-Decide MeanTD nonzero")
	}
	for i := 0; i < 100; i++ {
		p.Decide(twoClusterObs(i%8, i%9))
	}
	if p.MeanTD() < 0 {
		t.Fatal("negative TD magnitude")
	}
}

func TestPolicyResetClearsLearning(t *testing.T) {
	p := MustPolicy(DefaultConfig())
	var first [][]int
	for i := 0; i < 200; i++ {
		first = append(first, p.Decide(twoClusterObs(i%8, i%9)))
	}
	p.Reset()
	for i := 0; i < 200; i++ {
		got := p.Decide(twoClusterObs(i%8, i%9))
		if got[0] != first[i][0] || got[1] != first[i][1] {
			t.Fatalf("decision %d after Reset diverged", i)
		}
	}
}

func TestPolicyBoostExploration(t *testing.T) {
	p := MustPolicy(DefaultConfig())
	for i := 0; i < 20000; i++ {
		p.Decide(twoClusterObs(i%8, i%9))
	}
	floor := p.MeanEpsilon()
	p.BoostExploration(0.2)
	if got := p.MeanEpsilon(); got <= floor || got != 0.2 {
		t.Fatalf("boost to 0.2 gave %v (floor %v)", got, floor)
	}
	// Boost above EpsilonStart caps at EpsilonStart.
	p.BoostExploration(0.99)
	if got := p.MeanEpsilon(); got != DefaultConfig().EpsilonStart {
		t.Fatalf("boost cap gave %v", got)
	}
	// Boost below current is ignored.
	p.BoostExploration(0.01)
	if got := p.MeanEpsilon(); got != DefaultConfig().EpsilonStart {
		t.Fatalf("downward boost applied: %v", got)
	}
}

func TestSnapshotErrorsBeforeDecide(t *testing.T) {
	p := MustPolicy(DefaultConfig())
	if _, err := p.Snapshot(); err == nil {
		t.Fatal("snapshot of undriven policy accepted")
	}
}

// TestSnapshotRestoreRoundTrip loads a trained policy's snapshot through
// PolicyFromSnapshot and checks every Q-value comes back unchanged.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := MustPolicy(DefaultConfig())
	for i := 0; i < 1000; i++ {
		p.Decide(twoClusterObs(i%8, i%9))
	}
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Tables) != 2 {
		t.Fatalf("tables = %d", len(snap.Tables))
	}

	q, err := PolicyFromSnapshot(DefaultConfig(), snap)
	if err != nil {
		t.Fatal(err)
	}
	qa := q.agents
	pa := p.agents
	if len(qa) != len(pa) {
		t.Fatalf("restored %d agents, want %d", len(qa), len(pa))
	}
	for c := range qa {
		qt, pt := qa[c].Table(), pa[c].Table()
		for s := range qt {
			for x := range qt[s] {
				if qt[s][x] != pt[s][x] {
					t.Fatalf("cluster %d Q[%d][%d] differs after restore", c, s, x)
				}
			}
		}
	}
}

// TestRestoreValidatesShape checks PolicyFromSnapshot refuses a snapshot of
// another state config, one without tables and one with a ragged table, and
// that a policy loaded from a short table list refuses observations of a
// chip with more clusters than it has tables.
func TestRestoreValidatesShape(t *testing.T) {
	p := MustPolicy(DefaultConfig())
	p.Decide(twoClusterObs(0, 0))
	snap, _ := p.Snapshot()

	// Mismatched state config.
	bad := snap
	bad.State.LoadBins = 99
	if _, err := PolicyFromSnapshot(DefaultConfig(), bad); err == nil {
		t.Fatal("mismatched state config accepted")
	}
	// No tables at all.
	if _, err := PolicyFromSnapshot(DefaultConfig(), Snapshot{State: snap.State}); err == nil {
		t.Fatal("snapshot without tables accepted")
	}
	// Ragged table.
	bad = snap
	bad.Tables = [][][]float64{snap.Tables[0][:3], snap.Tables[1]}
	if _, err := PolicyFromSnapshot(DefaultConfig(), bad); err == nil {
		t.Fatal("ragged tables accepted")
	}
	// Wrong cluster count: the snapshot fixes the cluster count, so a
	// short table list loads but cannot drive a two-cluster chip.
	bad = snap
	bad.Tables = snap.Tables[:1]
	short, err := PolicyFromSnapshot(DefaultConfig(), bad)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short table list drove a two-cluster chip")
		}
	}()
	short.Decide(twoClusterObs(0, 0))
}

// TestPolicyFromSnapshot pins the frozen-policy constructor: learning is off
// on every agent, and two policies built from one snapshot run the same
// episode identically — no state from earlier runs leaks into a fresh
// deployment.
func TestPolicyFromSnapshot(t *testing.T) {
	p := MustPolicy(DefaultConfig())
	for i := 0; i < 1000; i++ {
		p.Decide(twoClusterObs(i%8, i%9))
	}
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	q, err := PolicyFromSnapshot(DefaultConfig(), snap)
	if err != nil {
		t.Fatal(err)
	}
	for c, a := range q.agents {
		if a.Learning() {
			t.Fatalf("cluster %d agent is learning", c)
		}
	}

	run := func(pol *Policy) sim.Result {
		t.Helper()
		chip, err := soc.NewChip(soc.DefaultChipSpec())
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := workload.ByName("gaming")
		scen, err := workload.New(spec, chip.NumClusters(), 3)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.Run(chip, scen, pol, sim.Config{PeriodS: 0.05, DurationS: 10, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	first := run(q)
	fresh, err := PolicyFromSnapshot(DefaultConfig(), snap)
	if err != nil {
		t.Fatal(err)
	}
	if again := run(fresh); again != first {
		t.Fatalf("fresh policy from one snapshot ran differently:\n%+v\n%+v", first, again)
	}
}

// TestSnapshotEncodeDecode round-trips a trained policy's snapshot
// through the checkpoint codec, the one policy file format.
func TestSnapshotEncodeDecode(t *testing.T) {
	p := MustPolicy(DefaultConfig())
	for i := 0; i < 500; i++ {
		p.Decide(twoClusterObs(i%8, i%9))
	}
	snap, _ := p.Snapshot()
	var buf bytes.Buffer
	if err := snap.EncodeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpointBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.State != snap.State || len(got.Tables) != len(snap.Tables) {
		t.Fatalf("decoded snapshot shape mismatch")
	}
	for c := range snap.Tables {
		for s := range snap.Tables[c] {
			for x := range snap.Tables[c][s] {
				if got.Tables[c][s][x] != snap.Tables[c][s][x] {
					t.Fatal("decoded snapshot values differ")
				}
			}
		}
	}
}

func TestDecodeCheckpointRejectsGarbage(t *testing.T) {
	if _, err := DecodeCheckpointBytes([]byte("not a checkpoint, but longer than its header")); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("garbage snapshot: %v, want ErrCheckpointCorrupt", err)
	}
}

func TestTrainValidatesEpisodes(t *testing.T) {
	chip, err := soc.NewChip(soc.DefaultChipSpec())
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := workload.ByName("idle")
	scen, _ := workload.New(spec, 2, 1)
	p := MustPolicy(DefaultConfig())
	if _, err := Train(chip, scen, p, sim.Config{PeriodS: 0.05, DurationS: 1}, 0); err == nil {
		t.Fatal("zero episodes accepted")
	}
}

func TestTrainProducesFullCurves(t *testing.T) {
	chip, _ := soc.NewChip(soc.DefaultChipSpec())
	spec, _ := workload.ByName("video")
	scen, _ := workload.New(spec, 2, 1)
	p := MustPolicy(DefaultConfig())
	tr, err := Train(chip, scen, p, sim.Config{PeriodS: 0.05, DurationS: 5, Seed: 1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.EnergyPerQoS) != 6 || len(tr.MeanQoS) != 6 || len(tr.ViolationRate) != 6 || len(tr.Epsilon) != 6 {
		t.Fatalf("curve lengths %d/%d/%d/%d", len(tr.EnergyPerQoS), len(tr.MeanQoS), len(tr.ViolationRate), len(tr.Epsilon))
	}
	for i := 1; i < len(tr.Epsilon); i++ {
		if tr.Epsilon[i] > tr.Epsilon[i-1] {
			t.Fatalf("epsilon rose between episodes %d and %d", i, i+1)
		}
	}
}

func TestPolicyEndToEndBeatsWorstGovernors(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	// Integration: after training on video, the policy must be strictly
	// better on energy-per-QoS than the performance governor and must
	// keep the violation rate within 5%.
	chip, _ := soc.NewChip(soc.DefaultChipSpec())
	spec, _ := workload.ByName("video")
	scen, _ := workload.New(spec, 2, 1)
	cfg := sim.Config{PeriodS: 0.05, DurationS: 60, Seed: 1}
	p := MustPolicy(DefaultConfig())
	if _, err := Train(chip, scen, p, cfg, 30); err != nil {
		t.Fatal(err)
	}
	p.SetLearning(false)
	rl, err := sim.Run(chip, scen, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perf := &pinAll{level: 99}
	pr, err := sim.Run(chip, scen, perf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rl.QoS.EnergyPerQoS >= pr.QoS.EnergyPerQoS {
		t.Fatalf("RL %v not better than performance %v", rl.QoS.EnergyPerQoS, pr.QoS.EnergyPerQoS)
	}
	if rl.QoS.ViolationRate > 0.05 {
		t.Fatalf("RL violation rate %v > 5%%", rl.QoS.ViolationRate)
	}
}

type pinAll struct{ level int }

func (g *pinAll) Name() string { return "pin-all" }
func (g *pinAll) Reset()       {}
func (g *pinAll) Decide(obs []sim.Observation) []int {
	out := make([]int, len(obs))
	for i := range out {
		out[i] = g.level
	}
	return out
}

func BenchmarkPolicyDecide(b *testing.B) {
	p := MustPolicy(DefaultConfig())
	obs := twoClusterObs(4, 5)
	p.Decide(obs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Decide(obs)
	}
}
