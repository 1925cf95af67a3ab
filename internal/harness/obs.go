package harness

import (
	"potgo/internal/core"
	"potgo/internal/obs"
	"potgo/internal/pmem"
)

// RunObs bundles the observability sinks a run can feed. The zero value
// disables everything; each field is independent.
type RunObs struct {
	// Metrics, when non-nil, receives the run's end-of-run statistics
	// (cpu.*, mem.*, core.*, polb.*, pot.*, pmem.*, emit.*, harness.*).
	Metrics *obs.Registry
	// Trace, when non-nil, receives the pipeline timestamps of one
	// instruction in traceEvery on the simulated-time track.
	Trace *obs.TraceWriter
}

// traceEvery is the pipeline trace's sampling interval. One instruction
// in 16 keeps long runs loadable in Perfetto, and each lane still spans the
// whole run.
const traceEvery = 16

// publish pushes one completed run's statistics into the registry. All
// counters aggregate across runs sharing a registry; gauges reflect the
// most recently published run. tr and h may be nil (BASE runs have no
// translator).
func (r RunResult) publish(reg *obs.Registry, tr *core.Translator, h *pmem.Heap) {
	if reg == nil {
		return
	}
	coreName := "inorder"
	if r.Spec.Core == OutOfOrder {
		coreName = "ooo"
	}
	r.CPU.PublishMetrics(reg, coreName)
	if tr != nil {
		tr.PublishMetrics(reg)
	}
	if h != nil {
		h.PublishMetrics(reg)
	}
	if r.Soft.Calls > 0 {
		r.Soft.PublishMetrics(reg)
	}
	reg.Counter("harness.runs").Inc()
	reg.Counter("harness.simulated_instructions").Add(r.CPU.Instructions)
	reg.Histogram("harness.run_instructions", runInsnBounds...).Observe(float64(r.CPU.Instructions))
	if r.CPU.Cycles > 0 {
		reg.Histogram("harness.run_ipc", runIPCBounds...).Observe(r.CPU.IPC())
	}
}

// Fixed bucket bounds for the per-run histograms: instruction counts on a
// decade scale, IPC on a linear scale around the models' operating range.
var (
	runInsnBounds = []float64{1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	runIPCBounds  = []float64{0.1, 0.2, 0.35, 0.5, 0.75, 1, 1.5, 2, 3}
)
