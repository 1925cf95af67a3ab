package main

import (
	"testing"
	"time"

	"potgo/internal/potserve"
)

// fakeStore is a correct in-memory backend that can be told to stall once.
type fakeStore struct {
	data      map[uint64]uint64
	calls     int
	stallAt   int
	stallTime time.Duration
}

func (f *fakeStore) Do(reqs []potserve.Request, _ []potserve.Response) ([]potserve.Response, error) {
	f.calls++
	if f.calls == f.stallAt {
		time.Sleep(f.stallTime)
	}
	out := make([]potserve.Response, len(reqs))
	for i, r := range reqs {
		old, had := f.data[r.Key]
		switch r.Op {
		case potserve.OpGet:
			out[i] = potserve.Response{Status: potserve.StatusNotFound}
			if had {
				out[i] = potserve.Response{Status: potserve.StatusOK, Val: old}
			}
		case potserve.OpPut:
			f.data[r.Key] = r.Val
			out[i] = potserve.Response{Status: potserve.StatusOK, Created: !had}
		case potserve.OpDel:
			delete(f.data, r.Key)
			out[i] = potserve.Response{Status: potserve.StatusNotFound}
			if had {
				out[i] = potserve.Response{Status: potserve.StatusOK}
			}
		}
	}
	return out, nil
}

func fakeWorkers(stallAt int, stall time.Duration) []*worker {
	var ws []*worker
	for c := 0; c < conns; c++ {
		f := &fakeStore{data: map[uint64]uint64{}}
		if c == 0 {
			f.stallAt, f.stallTime = stallAt, stall
		}
		ws = append(ws, &worker{p: f, s: newStream(3, c, conns, shards, 400, opMix{getPct: 50, putPct: 40}, nil)})
	}
	return ws
}

// A backend that stalls for 50 ticks must not make the generator drop any of
// them: every tick's batch is still sent, the ones the stall delayed are
// counted late, and their latency runs from when they were due.
func TestOpenLoopChargesAStallFromDueTime(t *testing.T) {
	const ticks, perTick, stallAt = 300, 4, 100
	stall := 50 * time.Millisecond
	ws := fakeWorkers(stallAt, stall)
	open, err := openLoop(ws, perTick, ticks, time.Millisecond, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if open.batches != conns*ticks || open.requests != conns*ticks*perTick {
		t.Fatalf("sent %d batches, %d requests; want %d, %d: a tick was skipped", open.batches, open.requests, conns*ticks, conns*ticks*perTick)
	}
	for _, w := range ws {
		if w.failed != 0 || w.attempted != ticks*perTick {
			t.Fatalf("worker verified %d of %d, failed %d (%s)", w.attempted, ticks*perTick, w.failed, w.firstFail)
		}
	}
	if open.late == 0 {
		t.Error("no batch was counted late behind a 50-tick stall")
	}
	if share := float64(open.late) / float64(open.batches); share > 0.25 {
		t.Errorf("late share %.2f: more late batches than one stall explains", share)
	}
	lat := open.latUs[0]
	if got := lat[stallAt-1]; got < 49000 {
		t.Errorf("the stalled batch took %.0f us, want at least the stall", got)
	}
	// Ten ticks on, the generator is still about forty ticks behind. Timed
	// from when it was sent the batch would look instant; timed from when
	// it was due it must show the wait.
	if got := lat[stallAt+9]; got < 30000 {
		t.Errorf("ten ticks after the stall a batch was charged %.0f us: not timed from its due tick", got)
	}
	if got := lat[ticks-1]; got > 20000 {
		t.Errorf("the generator never caught up: last batch %.0f us", got)
	}
	if open.overLim < 40*perTick {
		t.Errorf("only %d requests counted over the 5 ms limit behind a 50 ms stall", open.overLim)
	}
	if open.generatorBehindMax < 40*time.Millisecond {
		t.Errorf("generator reported at most %v behind", open.generatorBehindMax)
	}
}

func TestClosedLoopVerifiesEveryResponse(t *testing.T) {
	ws := fakeWorkers(0, 0)
	if err := preload(ws, true); err != nil {
		t.Fatal(err)
	}
	if _, err := closedLoop(ws, 2000, 16); err != nil {
		t.Fatal(err)
	}
	if err := sweep(ws); err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.failed != 0 {
			t.Fatalf("honest backend failed verification: %s", w.firstFail)
		}
	}
	// A backend that loses a write must be caught.
	liar := ws[0].p.(*fakeStore)
	for k := range liar.data {
		delete(liar.data, k)
		break
	}
	if err := sweep(ws); err != nil {
		t.Fatal(err)
	}
	if ws[0].failed != 1 {
		t.Fatalf("sweep counted %d failures after one lost key, want 1", ws[0].failed)
	}
}

// A stall that covers less than three quarters of a closed-loop phase must
// not move its throughput: the slices it falls in are slow, the quartile is
// taken over all of them.
func TestThroughputIsTheFasterQuarterOfTheSlices(t *testing.T) {
	const depth, perSlice, slices = 16, 50, 20
	r := closedResult{depth: depth, done: make([][]time.Duration, conns)}
	for w := range r.done {
		at := time.Duration(0)
		for k := 0; k < slices; k++ {
			n := perSlice
			if k >= 4 && k < 14 { // half the phase at a fifth of the speed
				n = perSlice / 5
			}
			for b := 0; b < n; b++ {
				at += closedSlice / time.Duration(n)
				r.done[w] = append(r.done[w], at-time.Microsecond)
			}
		}
		r.ops += len(r.done[w]) * depth
	}
	r.wall = slices * closedSlice
	got, n := r.opsPerSecond()
	if want := float64(conns*perSlice*depth) / closedSlice.Seconds(); got != want || n != slices {
		t.Errorf("throughput %g over %d slices, want the undisturbed %g over %d", got, n, want, slices)
	}
	if whole := float64(r.ops) / r.wall.Seconds(); whole > 0.7*got {
		t.Errorf("requests / wall = %g: the stall should show there", whole)
	}
	r.wall = 5 * closedSlice // too short to cut up
	if got, n := r.opsPerSecond(); n != 0 || got != float64(r.ops)/r.wall.Seconds() {
		t.Errorf("a short phase reported %g over %d slices, want requests / wall", got, n)
	}
}

// The same for open-loop latency: an episode that doubles every latency in a
// third of the slices leaves the first quartile of the slices where it was,
// and the whole-phase p99 shows it.
func TestLatencyIsTheCalmestQuarterOfTheSlices(t *testing.T) {
	const slices = 12
	r := openResult{latUs: make([][]float64, conns)}
	for w := range r.latUs {
		for k := 0; k < slices*openSlice; k++ {
			lat := 100 + 2*float64(k%50) // 100..198 us in every slice: p50 148, p95 194
			if s := k / openSlice; s >= 3 && s < 7 {
				lat *= 2
			}
			r.latUs[w] = append(r.latUs[w], lat)
		}
	}
	lat := r.latency()
	if lat.Slices != slices || lat.P50 != 148 || lat.P95 != 194 {
		t.Errorf("latency %+v, want the undisturbed p50 148 and p95 194 over %d slices", lat, slices)
	}
	if lat.P99 < 380 {
		t.Errorf("whole-phase p99 %g does not show the episode", lat.P99)
	}
	if lat.N != conns*slices*openSlice {
		t.Errorf("%d samples, want %d", lat.N, conns*slices*openSlice)
	}
}
