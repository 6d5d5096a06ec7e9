package workload

import "fmt"

// Segment is one leg of a Sequence: a scenario played for a fixed wall
// time.
type Segment struct {
	Spec      Spec
	DurationS float64
}

// Sequence chains scenarios back to back — a user session ("check the
// phone, browse, watch a video, play a game") rather than a single app.
// It is the stress test for online adaptation: phase statistics shift at
// every boundary. The sequence loops when it reaches the end.
type Sequence struct {
	name     string
	segments []Segment
	scens    []Scenario
	clusters int
	seed     uint64

	idx     int
	remainS float64
}

// NewSequence builds a looping session from segments.
func NewSequence(name string, segments []Segment, clusters int, seed uint64) (*Sequence, error) {
	if name == "" {
		return nil, fmt.Errorf("workload: sequence has no name")
	}
	if len(segments) == 0 {
		return nil, fmt.Errorf("workload: sequence %s has no segments", name)
	}
	s := &Sequence{name: name, segments: segments, clusters: clusters, seed: seed}
	for i, seg := range segments {
		if seg.DurationS <= 0 {
			return nil, fmt.Errorf("workload: sequence %s segment %d has non-positive duration", name, i)
		}
		scen, err := New(seg.Spec, clusters, seed+uint64(i)*0x9e37)
		if err != nil {
			return nil, fmt.Errorf("workload: sequence %s segment %d: %w", name, i, err)
		}
		s.scens = append(s.scens, scen)
	}
	s.Reset(seed)
	return s, nil
}

// DaySession returns the default composite session: idle → browsing →
// video → gaming → camera → mixed, a compressed slice of a day of use.
func DaySession(clusters int, seed uint64) (*Sequence, error) {
	return NewSequence("day", []Segment{
		{IdleSpec(), 20},
		{BrowsingSpec(), 25},
		{VideoSpec(), 30},
		{GamingSpec(), 30},
		{CameraSpec(), 15},
		{MixedSpec(), 20},
	}, clusters, seed)
}

// Name implements Scenario.
func (s *Sequence) Name() string { return s.name }

// Reset implements Scenario: restarts from the first segment.
func (s *Sequence) Reset(seed uint64) {
	s.seed = seed
	for i, scen := range s.scens {
		scen.Reset(seed + uint64(i)*0x9e37)
	}
	s.idx = 0
	s.remainS = s.segments[0].DurationS
}

// Next implements Scenario.
func (s *Sequence) Next(dtS float64) Period {
	if dtS <= 0 {
		panic("workload: non-positive control period")
	}
	p := s.scens[s.idx].Next(dtS)
	s.remainS -= dtS
	if s.remainS <= 0 {
		s.idx = (s.idx + 1) % len(s.segments)
		s.remainS = s.segments[s.idx].DurationS
	}
	return p
}
