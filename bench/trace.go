package main

import (
	"path/filepath"
	"sort"
	"time"

	"potgo/internal/obs"
)

// A span is one call into one layer on behalf of one request. The benchmark
// cannot see inside the layers, so it times the same request against
// successively deeper public entry points, each on its own identical copy of
// the store, and nests the measurements: the interval a deeper replay took is
// the child of the interval the shallower one took. Start is a position on
// that synthetic per-request timeline, not a wall-clock instant.
type span struct {
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Start  int64  `json:"start_ns"`
	// Dur is the span as drawn: a child is cut to fit inside what is left
	// of its parent. Raw is the interval as measured; the layer totals are
	// summed from Raw, so noise between replays cancels there without
	// being cut off one-sidedly.
	Dur int64 `json:"dur_ns"`
	Raw int64 `json:"raw_ns"`
}

// recorder holds every span of a traced run in memory until the run ends.
type recorder struct {
	spans   []span
	clamped int // children that measured longer than their parent and were cut to fit
	cursor  int64
}

// root opens a request's outermost span and returns its id.
func (r *recorder) root(layer, op string, req int, dur int64) int {
	r.spans = append(r.spans, span{Layer: layer, Op: op, Req: req, ID: len(r.spans) + 1, Start: r.cursor, Dur: dur, Raw: dur})
	r.cursor += dur + 1000
	return len(r.spans)
}

// child nests a span of the given duration inside parent, after the
// parent's earlier children. A child can only measure longer than what is
// left of its parent through noise between replays; the drawn span is cut to
// fit and counted.
func (r *recorder) child(parent int, layer string, dur int64) int {
	p := &r.spans[parent-1]
	start := p.Start
	for i := parent; i < len(r.spans); i++ {
		if s := r.spans[i]; s.Parent == parent {
			start = s.Start + s.Dur
		}
	}
	raw := dur
	if room := p.Start + p.Dur - start; dur > room {
		dur = room
		r.clamped++
	}
	r.spans = append(r.spans, span{Layer: layer, Op: p.Op, Req: p.Req, ID: len(r.spans) + 1, Parent: parent, Start: start, Dur: dur, Raw: raw})
	return len(r.spans)
}

// selfTimes returns, for each span, its measured duration minus its
// children's. Over a whole trace they sum to the roots' durations exactly.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.Raw
		if s.Parent != 0 {
			self[s.Parent-1] -= s.Raw
		}
	}
	return self
}

// layerRow is one layer's share of one kind of request in layers_*.json.
type layerRow struct {
	Layer string `json:"layer"`
	// Spans is how many requests of this kind reached the layer.
	Spans int `json:"spans"`
	// MeanNs is the layer's mean span; SelfNs is that minus its children,
	// both averaged over every request of the kind (a request that never
	// reached the layer counts as 0). A layer whose own time is smaller
	// than the noise between two replays can come out slightly negative.
	MeanNs float64 `json:"mean_ns"`
	SelfNs float64 `json:"self_ns"`
	// ShareOfRoot is SelfNs over the mean root span; ShareOfExec leaves
	// the client round trip out: SelfNs over the mean of what ran inside
	// the server's execute call.
	ShareOfRoot float64 `json:"share_of_root"`
	ShareOfExec float64 `json:"share_of_exec,omitempty"`
}

type opBreakdown struct {
	Requests int        `json:"requests"`
	RootNs   float64    `json:"root_mean_ns"`
	Layers   []layerRow `json:"layers"`
}

// layersFile is layers_<workload>.json.
type layersFile struct {
	Workload        string                 `json:"workload"`
	Env             envInfo                `json:"env"`
	Comparable      bool                   `json:"comparable"`
	Requests        int                    `json:"requests"`
	TimerOverheadNs float64                `json:"timer_overhead_ns"`
	ClampedSpans    int                    `json:"clamped_spans"`
	Layers          []string               `json:"declared_layers"`
	Ops             map[string]opBreakdown `json:"ops"`
	Metrics         map[string]float64     `json:"metrics"`
}

// execLayers are the layers inside the server's execute call.
var execLayers = map[string]bool{
	"potserve.exec": true, "cluster.node": true, "objstore.kv": true,
	"pds.bplus": true, "pmem.tx": true, "nvmsim.domain": true,
}

// breakdown aggregates spans by request kind and layer. The kind "all"
// covers every request.
func breakdown(spans []span) map[string]opBreakdown {
	self := selfTimes(spans)
	type acc struct {
		spans     int
		dur, self int64
	}
	type opAcc struct {
		reqs   int
		root   int64
		layers map[string]*acc
	}
	ops := map[string]*opAcc{}
	add := func(kind string, i int) {
		o := ops[kind]
		if o == nil {
			o = &opAcc{layers: map[string]*acc{}}
			ops[kind] = o
		}
		s := spans[i]
		if s.Parent == 0 {
			o.reqs++
			o.root += s.Dur
		}
		a := o.layers[s.Layer]
		if a == nil {
			a = &acc{}
			o.layers[s.Layer] = a
		}
		a.spans++
		a.dur += s.Raw
		a.self += self[i]
	}
	for i, s := range spans {
		add(s.Op, i)
		add("all", i)
	}
	order := map[string]int{}
	for i, l := range layerNames {
		order[l] = i
	}
	out := map[string]opBreakdown{}
	for kind, o := range ops {
		n := float64(o.reqs)
		b := opBreakdown{Requests: o.reqs, RootNs: per(float64(o.root), n)}
		var execSelf float64
		for l, a := range o.layers {
			if execLayers[l] {
				execSelf += float64(a.self)
			}
		}
		for l, a := range o.layers {
			row := layerRow{
				Layer: l, Spans: a.spans, MeanNs: per(float64(a.dur), n), SelfNs: per(float64(a.self), n),
				ShareOfRoot: per(float64(a.self), float64(o.root)),
			}
			if execLayers[l] {
				row.ShareOfExec = per(float64(a.self), execSelf)
			}
			b.Layers = append(b.Layers, row)
		}
		sort.Slice(b.Layers, func(i, j int) bool { return order[b.Layers[i].Layer] < order[b.Layers[j].Layer] })
		out[kind] = b
	}
	return out
}

// traceFileRequests bounds trace_<workload>.json: every request is
// aggregated into layers_<workload>.json, the first this many are drawn.
const traceFileRequests = 2000

// writeTrace writes the spans as a Chrome trace-event file. Its clock is the
// synthetic timeline in nanoseconds: one trace microsecond is one
// nanosecond, so timestamps stay whole numbers.
func writeTrace(path string, workload string, spans []span) error {
	tw, err := obs.CreateTrace(path)
	if err != nil {
		return err
	}
	tw.NameProcess(obs.HarnessPID, "bench "+workload+" (1 us on this clock = 1 ns; replays nested per request)")
	tw.NameThread(obs.HarnessPID, 0, "requests")
	for _, s := range spans {
		if s.Req >= traceFileRequests {
			continue
		}
		tw.Complete(obs.HarnessPID, 0, s.Layer, float64(s.Start), float64(s.Dur), map[string]any{
			"layer": s.Layer, "op": s.Op, "req": s.Req, "id": s.ID, "parent": s.Parent, "raw_ns": s.Raw,
		})
	}
	return tw.Close()
}

// finishTrace writes a traced run's two files.
func finishTrace(o options, res *result, rec *recorder, requests int, overheadNs float64) error {
	lf := layersFile{
		Workload: o.workload, Env: res.Env, Comparable: res.Comparable, Requests: requests,
		TimerOverheadNs: overheadNs, ClampedSpans: rec.clamped, Layers: layerNames,
		Ops: breakdown(rec.spans), Metrics: res.Metrics,
	}
	if err := writeJSON(filepath.Join(o.out, "layers_"+o.workload+".json"), lf); err != nil {
		return err
	}
	return writeTrace(filepath.Join(o.out, "trace_"+o.workload+".json"), o.workload, rec.spans)
}

// timerOverhead measures what reading the clock twice costs, so that it can
// be taken off every interval: the spans nest, and an uncorrected clock
// would bill each layer for its children's stopwatches.
func timerOverhead() time.Duration {
	const n = 200000
	best := time.Hour
	for round := 0; round < 5; round++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			_ = time.Since(time.Now())
		}
		if d := time.Since(start) / n; d < best {
			best = d
		}
	}
	return best
}
