package trace

import "testing"

func TestRecordRejectsOutOfOrderTimes(t *testing.T) {
	r := mustRecorder(t, "v")
	if err := r.Record(1.0, map[string]float64{"v": 1}); err != nil {
		t.Fatalf("record: %v", err)
	}
	if err := r.Record(0.5, map[string]float64{"v": 2}); err == nil {
		t.Fatal("Record accepted a rewinding sample time")
	}
	if err := r.RecordRow(0.5, []float64{3}); err == nil {
		t.Fatal("RecordRow accepted a rewinding sample time")
	}
	if r.Len() != 1 {
		t.Fatalf("rejected rows were stored: len %d", r.Len())
	}
	// Equal times are allowed — a zero-duration step, not a rewind.
	if err := r.Record(1.0, map[string]float64{"v": 4}); err != nil {
		t.Fatalf("equal sample time rejected: %v", err)
	}
}

func TestIntegrateEmptyAndSingle(t *testing.T) {
	r := mustRecorder(t, "p")
	if got, err := r.Integrate("p"); err != nil || got != 0 {
		t.Fatalf("empty integral = %v, %v; want 0, nil", got, err)
	}
	if err := r.Record(0, map[string]float64{"p": 5}); err != nil {
		t.Fatalf("record: %v", err)
	}
	if _, err := r.Integrate("p"); err == nil {
		t.Fatal("single-sample integral needs a step and must error")
	}
}
