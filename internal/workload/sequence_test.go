package workload

import (
	"strings"
	"testing"
)

func TestNewSequenceValidation(t *testing.T) {
	if _, err := NewSequence("", []Segment{{IdleSpec(), 10}}, 2, 1); err == nil {
		t.Error("no name accepted")
	}
	if _, err := NewSequence("x", nil, 2, 1); err == nil {
		t.Error("no segments accepted")
	}
	if _, err := NewSequence("x", []Segment{{IdleSpec(), 0}}, 2, 1); err == nil {
		t.Error("zero duration accepted")
	}
	bad := IdleSpec()
	bad.Initial = "ghost"
	if _, err := NewSequence("x", []Segment{{bad, 10}}, 2, 1); err == nil {
		t.Error("invalid segment spec accepted")
	}
	if _, err := NewSequence("x", []Segment{{IdleSpec(), 10}}, 4, 1); err == nil {
		t.Error("bad cluster count accepted")
	}
}

func TestDaySession(t *testing.T) {
	s, err := DaySession(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "day" {
		t.Fatalf("Name = %q", s.Name())
	}
	var names []string
	for _, seg := range s.segments {
		names = append(names, seg.Spec.Name)
	}
	if got := strings.Join(names, "→"); got != "idle→browsing→video→gaming→camera→mixed" {
		t.Fatalf("segments = %q", got)
	}
	if s.idx != 0 {
		t.Fatalf("starts at segment %d", s.idx)
	}
}

func TestSequenceAdvancesThroughSegments(t *testing.T) {
	s, err := NewSequence("two", []Segment{{IdleSpec(), 1}, {VideoSpec(), 1}}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	// 1 s per segment at 50 ms = 20 periods each; 50 periods covers both
	// plus the loop back to the first.
	for i := 0; i < 50; i++ {
		seen[s.segments[s.idx].Spec.Name] = true
		s.Next(0.05)
	}
	if !seen["idle"] || !seen["video"] {
		t.Fatalf("segments visited: %v", seen)
	}
	// After 40 periods it loops back to idle.
	s.Reset(3)
	for i := 0; i < 40; i++ {
		s.Next(0.05)
	}
	if s.segments[s.idx].Spec.Name != "idle" {
		t.Fatalf("did not loop: current = %q", s.segments[s.idx].Spec.Name)
	}
}

func TestSequenceDeterministicAcrossReset(t *testing.T) {
	s, _ := NewSequence("two", []Segment{{BrowsingSpec(), 2}, {GamingSpec(), 2}}, 2, 7)
	var first []float64
	for i := 0; i < 100; i++ {
		first = append(first, s.Next(0.05).Demands[1].Cycles)
	}
	s.Reset(7)
	for i := 0; i < 100; i++ {
		if got := s.Next(0.05).Demands[1].Cycles; got != first[i] {
			t.Fatalf("period %d diverged after Reset", i)
		}
	}
}

func TestSequenceSegmentsHaveIndependentStreams(t *testing.T) {
	// Two segments of the same spec must not replay identical demands
	// (they are seeded per segment index).
	s, _ := NewSequence("twin", []Segment{{GamingSpec(), 1}, {GamingSpec(), 1}}, 2, 5)
	var a, b []float64
	for i := 0; i < 20; i++ {
		a = append(a, s.Next(0.05).Demands[1].Cycles)
	}
	for i := 0; i < 20; i++ {
		b = append(b, s.Next(0.05).Demands[1].Cycles)
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("twin segments replayed %d/20 identical demands", same)
	}
}

func TestSequencePanicsOnBadDt(t *testing.T) {
	s, _ := DaySession(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("dt=0 did not panic")
		}
	}()
	s.Next(0)
}
