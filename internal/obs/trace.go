package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// TraceWriter streams Chrome trace-event JSON (the array format that
// ui.perfetto.dev and chrome://tracing load directly). Events are written
// incrementally through a buffered writer, so arbitrarily long traces never
// materialize in memory. All methods are safe for concurrent use and no-ops
// on a nil *TraceWriter.
//
// Two timebases share one file, separated by process id:
//
//	pid 1 ("simulated core"): ts is the simulated cycle number, one
//	  microsecond per cycle — pipeline lanes of sampled instructions.
//	pid 2 ("harness"): ts is wall-clock microseconds since the writer was
//	  created — phase spans (config build, trace gen + sim, table render).
type TraceWriter struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	c     io.Closer
	n     uint64 // events written
	err   error
	epoch time.Time
}

// Trace process ids (the "pid" lane groups in Perfetto).
const (
	SimPID     = 1 // simulated-cycle timebase
	HarnessPID = 2 // wall-clock timebase
)

// traceEvent is one Chrome trace event (the subset of fields we emit).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTraceWriter starts a trace stream on w, which is closed (when it
// implements io.Closer) by Close.
func NewTraceWriter(w io.Writer) *TraceWriter {
	tw := &TraceWriter{bw: bufio.NewWriterSize(w, 1<<16), epoch: time.Now()}
	if c, ok := w.(io.Closer); ok {
		tw.c = c
	}
	tw.bw.WriteString("[")
	return tw
}

// CreateTrace opens path for writing and starts a trace stream on it.
func CreateTrace(path string) (*TraceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return NewTraceWriter(f), nil
}

// emit appends one event (callers hold no lock).
func (t *TraceWriter) emit(ev traceEvent) {
	if t == nil {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return // unmarshalable args: drop the event, not the trace
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if t.n > 0 {
		t.bw.WriteString(",\n")
	}
	if _, err := t.bw.Write(data); err != nil {
		t.err = err
		return
	}
	t.n++
}

// Complete records a complete ("ph":"X") span: [ts, ts+dur) on the given
// pid/tid lane. Units are microseconds in the pid's timebase.
func (t *TraceWriter) Complete(pid, tid int, name string, ts, dur float64, args map[string]any) {
	t.emit(traceEvent{Name: name, Ph: "X", PID: pid, TID: tid, TS: ts, Dur: dur, Args: args})
}

// Instant records an instant ("ph":"i") event.
//
//potlint:allow unusedexport kept for TestNilSafety and TestTraceWriter
func (t *TraceWriter) Instant(pid, tid int, name string, ts float64, args map[string]any) {
	t.emit(traceEvent{Name: name, Ph: "i", PID: pid, TID: tid, TS: ts, Args: args})
}

// NameProcess labels a pid lane group in the trace viewer.
func (t *TraceWriter) NameProcess(pid int, name string) {
	t.emit(traceEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
}

// NameThread labels a tid lane within a pid group.
func (t *TraceWriter) NameThread(pid, tid int, name string) {
	t.emit(traceEvent{Name: "thread_name", Ph: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}})
}

// Span opens a wall-clock harness span on the given tid and returns a
// closure that ends it. Usage: defer tw.Span(0, "render table2")().
func (t *TraceWriter) Span(tid int, name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.epoch)
	return func() {
		end := time.Since(t.epoch)
		t.Complete(HarnessPID, tid, name,
			float64(start.Microseconds()), float64((end - start).Microseconds()), nil)
	}
}

// Events returns the number of events written so far (0 on nil).
//
//potlint:allow unusedexport kept for TestNilSafety, TestTraceWriter and TestPipelineTracerSampling
func (t *TraceWriter) Events() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Close terminates the JSON array, flushes, and closes the underlying file.
// It reports the first error encountered over the writer's lifetime.
func (t *TraceWriter) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bw.WriteString("]\n")
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if t.c != nil {
		if err := t.c.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// Pipeline lane tids under SimPID. The out-of-order model fills all four
// stage lanes; the five-stage in-order model uses LaneInOrder occupancy
// spans (issue → writeback).
const (
	LaneFetch   = 1 // fetch/dispatch: front end, redirect + window stalls
	LaneIssue   = 2 // dispatch/issue: operand wait
	LaneExec    = 3 // issue/complete: execution + memory latency
	LaneCommit  = 4 // complete/commit: in-order retirement wait
	LaneInOrder = 5 // in-order pipe occupancy (issue..done)
)

// PipelineTracer samples per-instruction pipeline timestamps out of a timing
// model into a TraceWriter. Every N-th instruction (1 = all) emits one
// complete event per stage lane, with the cycle number as the microsecond
// timestamp, so Perfetto renders the pipeline as stacked stage tracks. A nil
// *PipelineTracer is a no-op, which is how the hot loops stay untouched when
// tracing is off (a single nil check per instruction).
type PipelineTracer struct {
	tw    *TraceWriter
	every uint64
	seen  uint64
}

// NewPipelineTracer attaches sampling pipeline capture to tw, keeping one
// instruction in every `every` (values < 1 mean 1). Returns nil (disabled)
// when tw is nil, and writes the lane-name metadata otherwise.
func NewPipelineTracer(tw *TraceWriter, every int) *PipelineTracer {
	if tw == nil {
		return nil
	}
	if every < 1 {
		every = 1
	}
	tw.NameProcess(SimPID, "simulated core (1 cycle = 1us)")
	tw.NameThread(SimPID, LaneFetch, "fetch/dispatch")
	tw.NameThread(SimPID, LaneIssue, "dispatch/issue")
	tw.NameThread(SimPID, LaneExec, "issue/complete")
	tw.NameThread(SimPID, LaneCommit, "complete/commit")
	tw.NameThread(SimPID, LaneInOrder, "in-order pipe")
	return &PipelineTracer{tw: tw, every: uint64(every)}
}

// sample reports whether the current instruction is kept.
func (p *PipelineTracer) sample() bool {
	if p == nil {
		return false
	}
	p.seen++
	return p.seen%p.every == 1 || p.every == 1
}

// span clamps a stage interval to at least one cycle so zero-length stages
// remain visible in the viewer.
func span(from, to uint64) float64 {
	if to <= from {
		return 1
	}
	return float64(to - from)
}

// OoO records one sampled out-of-order instruction as four stage-lane spans:
// dispatch→issue→complete→commit, with the fetch lane covering the
// front-end slot before dispatch.
func (p *PipelineTracer) OoO(op string, fetch, dispatch, issue, complete, commit uint64) {
	if !p.sample() {
		return
	}
	args := map[string]any{"n": p.seen}
	p.tw.Complete(SimPID, LaneFetch, op, float64(fetch), span(fetch, dispatch), args)
	p.tw.Complete(SimPID, LaneIssue, op, float64(dispatch), span(dispatch, issue), nil)
	p.tw.Complete(SimPID, LaneExec, op, float64(issue), span(issue, complete), nil)
	p.tw.Complete(SimPID, LaneCommit, op, float64(complete), span(complete, commit), nil)
}

// InOrder records one sampled in-order instruction as a single occupancy
// span from its issue slot to its completion (result availability).
func (p *PipelineTracer) InOrder(op string, issue, done uint64) {
	if !p.sample() {
		return
	}
	p.tw.Complete(SimPID, LaneInOrder, op, float64(issue), span(issue, done),
		map[string]any{"n": p.seen})
}
