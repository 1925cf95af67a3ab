package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

// The -quick smoke: every workload's untraced run, end to end, at sizes that
// take a second. The numbers mean nothing and must say so.
func TestQuickSmokeOfEveryWorkload(t *testing.T) {
	t.Parallel() // beside TestTraceHygiene: the two are most of the package's test time
	for _, w := range workloadNames {
		o := options{workload: w, seed: 5, seconds: 2, quick: true, child: "full", out: t.TempDir()}
		res := newResult(o)
		runPhase(o, res)
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: verification failed: %v", w, res.Failures)
		}
		if res.Comparable {
			t.Errorf("%s: a -quick result is marked comparable", w)
		}
		for _, d := range endToEnd {
			v, ok := res.Metrics[d.Name]
			if d.on(w) && !ok {
				t.Errorf("%s: end-to-end metric %s is missing", w, d.Name)
			}
			if d.on(w) && d.Name != "fail_share" && v <= 0 {
				t.Errorf("%s: %s = %g", w, d.Name, v)
			}
		}
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.Name]; d.on(w) && !d.Traced && !ok {
				t.Errorf("%s: per-layer metric %s is missing from the untraced run", w, d.Name)
			}
		}
		if res.Attempted < 12 {
			t.Errorf("%s: only %d operations verified", w, res.Attempted)
		}
		out := captureStdout(t, func() { printResult(res, false) })
		if !strings.Contains(out, "NOT COMPARABLE") {
			t.Errorf("%s: printed -quick result does not say it is not comparable:\n%s", w, out)
		}
	}
}

// traceEvent holds what cmd/obscheck requires of a trace event, plus the span
// fields the bench puts in args.
type traceEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	PID  *int   `json:"pid"`
	TS   *int64 `json:"ts"`
	Dur  int64  `json:"dur"`
	Args struct {
		Layer  string `json:"layer"`
		Req    int    `json:"req"`
		ID     int    `json:"id"`
		Parent int    `json:"parent"`
		Raw    int64  `json:"raw_ns"`
	} `json:"args"`
}

// Trace hygiene, on a real traced run of each kind: the files pass
// cmd/obscheck as it stands, every span names a declared layer and has a
// parent or is a root, children lie inside their parents, and the layers'
// self times add up to the root spans.
func TestTraceHygiene(t *testing.T) {
	t.Parallel()
	declared := map[string]bool{}
	for _, l := range layerNames {
		declared[l] = true
	}
	for _, w := range []string{"serve_write", "cluster_mixed", "sim_grid"} {
		dir := t.TempDir()
		o := options{workload: w, seed: 5, seconds: 2, quick: true, child: "trace", out: dir}
		res := newResult(o)
		runPhase(o, res)
		if !res.Correct {
			t.Fatalf("%s: traced run failed verification: %v", w, res.Failures)
		}
		for _, d := range perLayer {
			if v, ok := res.Metrics[d.Name]; d.on(w) && d.Traced && (!ok || (v == 0 && d.Name != "bench.trace_overhead_pct")) {
				t.Errorf("%s: traced metric %s is not populated (%g)", w, d.Name, v)
			}
		}
		tracePath := filepath.Join(dir, "trace_"+w+".json")
		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var events []traceEvent
		if err := json.Unmarshal(data, &events); err != nil {
			t.Fatalf("%s: not a trace-event array with whole-number timestamps: %v", w, err)
		}
		byID := map[int]traceEvent{}
		var roots, self int64
		spans := 0
		for _, e := range events {
			if e.Name == "" || e.Ph == "" || e.PID == nil || (e.Ph != "M" && e.TS == nil) {
				t.Fatalf("%s: event lacks name/ph/pid/ts: %+v", w, e)
			}
			if e.Ph != "X" {
				continue
			}
			spans++
			if !declared[e.Args.Layer] || e.Name != e.Args.Layer {
				t.Fatalf("%s: span names layer %q (%q), not on the declared list", w, e.Args.Layer, e.Name)
			}
			byID[e.Args.ID] = e
		}
		if spans == 0 {
			t.Fatalf("%s: trace holds no spans", w)
		}
		for _, e := range byID {
			self += e.Args.Raw
			if e.Args.Parent == 0 {
				roots += e.Args.Raw
				continue
			}
			p, ok := byID[e.Args.Parent]
			if !ok || p.Args.Req != e.Args.Req {
				t.Fatalf("%s: span %d of request %d has no parent %d in its request", w, e.Args.ID, e.Args.Req, e.Args.Parent)
			}
			if *e.TS < *p.TS || *e.TS+e.Dur > *p.TS+p.Dur {
				t.Fatalf("%s: span %d [%d,+%d] is not inside its parent [%d,+%d]", w, e.Args.ID, *e.TS, e.Dur, *p.TS, p.Dur)
			}
			self -= e.Args.Raw
		}
		if diff := float64(self-roots) / float64(roots); diff > 0.01 || diff < -0.01 {
			t.Errorf("%s: self times sum to %d ns, the root spans to %d ns", w, self, roots)
		}
		var lf layersFile
		data, err = os.ReadFile(filepath.Join(dir, "layers_"+w+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &lf); err != nil {
			t.Fatal(err)
		}
		all := lf.Ops["all"]
		var layerSelf float64
		for _, row := range all.Layers {
			layerSelf += row.SelfNs
		}
		if all.Requests == 0 || layerSelf < 0.99*all.RootNs || layerSelf > 1.01*all.RootNs {
			t.Errorf("%s: layers file: self times %.0f ns per request, root %.0f ns", w, layerSelf, all.RootNs)
		}
		if lf.Comparable || lf.Env.GoVersion == "" || lf.Env.Seed != 5 {
			t.Errorf("%s: layers file does not carry its run's conditions: %+v comparable=%v", w, lf.Env, lf.Comparable)
		}

		if w != "serve_write" {
			continue // one pass through the real obscheck is enough
		}
		cmd := exec.Command("go", "run", "potgo/cmd/obscheck", "-trace", tracePath)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("cmd/obscheck rejects %s: %v\n%s", tracePath, err, out)
		}
	}
}
