package harness

import "testing"

// TestMeasureFTOverhead runs a micro and TPC-C at test scale over plain
// and fault-tolerant pools: both must complete, agree functionally, and
// report positive per-op times for both sides of each pair.
func TestMeasureFTOverhead(t *testing.T) {
	rows, err := MeasureFTOverhead([]string{"LL", "B+T", TPCCBench}, 60, 20, 6)
	if err != nil {
		t.Fatalf("MeasureFTOverhead: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.PlainNs <= 0 || r.FTNs <= 0 {
			t.Errorf("%s: non-positive timing %+v", r.Bench, r)
		}
		if r.Ops <= 0 {
			t.Errorf("%s: ops = %d", r.Bench, r.Ops)
		}
	}
	if got := (FTBenchOverhead{PlainNs: 10, FTNs: 12}).Overhead(); got < 0.19 || got > 0.21 {
		t.Errorf("Overhead() = %v, want 0.2", got)
	}
}

// TestMeasureFTOverheadValidates rejects non-positive op counts and
// unknown benches.
func TestMeasureFTOverheadValidates(t *testing.T) {
	if _, err := MeasureFTOverhead(nil, 0, 10, 1); err == nil {
		t.Error("ops=0 must fail")
	}
	if _, err := MeasureFTOverhead([]string{"NOPE"}, 10, 10, 1); err == nil {
		t.Error("unknown bench must fail")
	}
}
