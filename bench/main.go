// Command bench is the repository's one benchmark: four workloads that
// between them exercise the simulator, the single-node store and the
// replicated cluster, measured from outside through the layers' public
// functions and counters. See README.md for the metric catalogue.
//
//	go run .                      every workload, untraced: end-to-end metrics and layer counts
//	go run . -trace               every workload, traced: per-layer times, trace_*.json, layers_*.json
//	go run . -selfcheck           the untraced set twice; fails if the two disagree beyond the bounds
//	go run . -workload W -seed N -seconds S -trace 0|1    one workload, one JSON line (BENCHMARK.json's command)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the closed-loop and the
// open-loop phases of a serving workload take half each, the grid all of it.
const defaultSeconds = 18

// envInfo says where and on what a result was taken.
type envInfo struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Time       string `json:"time"`
}

// result is what one child process measured.
type result struct {
	Workload string `json:"workload"`
	Phase    string `json:"phase"`
	// Comparable is false for -quick runs: their sizes are too small for
	// the numbers to mean anything next to a full run's.
	Comparable bool               `json:"comparable"`
	Env        envInfo            `json:"env"`
	Params     map[string]float64 `json:"params"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

func (r *result) fail(n int64, msg string) {
	r.Failed += n
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, msg)
	}
}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     string // "", "0" or "1"
	quick     bool
	selfcheck bool
	child     string // "", "setup", "full", "trace" or "burn"
	out       string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print one JSON line: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "run length; phase sizes are fixed operation counts derived from it")
	flag.StringVar(&o.trace, "trace", "", "1 (or bare -trace): the traced run with per-layer metrics; 0: the untraced run")
	flag.BoolVar(&o.quick, "quick", false, "tiny sizes, a smoke test; results are marked non-comparable")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced set twice and compare against BENCHMARK.json's bounds")
	printJSON := flag.Bool("benchmark-json", false, "print BENCHMARK.json as the metric catalogue defines it and exit")
	flag.StringVar(&o.child, "child", "", "internal: the phase a child process runs")
	flag.StringVar(&o.out, "out", "out", "directory for result, trace and layer files")
	flag.CommandLine.Parse(normaliseArgs(os.Args[1:]))
	if flag.NArg() > 0 || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments", flag.Args())
		os.Exit(2)
	}
	if o.workload != "" && !slices.Contains(workloadNames, o.workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	var err error
	switch {
	case *printJSON:
		_, err = os.Stdout.Write(benchmarkJSON())
	case o.child == "burn":
		burn()
	case o.child != "":
		err = runChild(o)
	case o.selfcheck:
		err = selfcheck(o)
	case o.workload != "":
		err = driverRun(o)
	default:
		err = humanRun(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// normaliseArgs lets -trace be both the switch of `go run . -trace` and the
// valued flag of BENCHMARK.json's command (`--trace 0`, `--trace 1`).
func normaliseArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if a := args[i]; a == "-trace" || a == "--trace" {
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				out = append(out, "-trace="+args[i+1])
				i++
			} else {
				out = append(out, "-trace=1")
			}
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// runChild is one measured process: it pins GOMAXPROCS (one P for a serving
// workload, one per simulation worker for the grid), runs its phase and
// prints its result as the last line of standard output.
func runChild(o options) error {
	runtime.GOMAXPROCS(simWorkers)
	if _, serving := serveSpecs[o.workload]; serving {
		runtime.GOMAXPROCS(serveProcs)
	}
	res := newResult(o)
	runPhase(o, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// newResult starts a result with everything that says where, on what and
// with which sizes it was taken.
func newResult(o options) *result {
	return &result{
		Workload: o.workload, Phase: o.child, Comparable: !o.quick,
		Params: map[string]float64{}, Metrics: map[string]float64{},
		Env: envInfo{
			GitSHA: gitSHA(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0), Seed: o.seed, Seconds: o.seconds,
			Time: time.Now().UTC().Format(time.RFC3339),
		},
	}
}

// runPhase runs o.child for o.workload and fills res.
func runPhase(o options, res *result) {
	sp, serving := serveSpecs[o.workload]
	var err error
	switch {
	case o.child == "setup" && serving:
		t0 := time.Now()
		var st *stack
		if st, err = setUp(sp, o.seed, sp.keySpace(o.quick)); err == nil {
			res.Metrics["setup_s"] = time.Since(t0).Seconds()
			st.close()
		}
	case o.child == "setup":
		t0 := time.Now()
		if _, err = simSetUp(o.seed, simScale(o.seconds, o.quick)); err == nil {
			res.Metrics["setup_s"] = time.Since(t0).Seconds()
		}
	case o.child == "full" && serving:
		err = runServe(sp, o.seed, o.seconds, o.quick, res)
	case o.child == "full":
		err = runSim(o.seed, o.seconds, o.quick, res)
	case o.child == "trace" && serving:
		err = traceServe(sp, o, res)
	case o.child == "trace":
		err = traceSim(o, res)
	default:
		err = fmt.Errorf("unknown child phase %q", o.child)
	}
	if err != nil {
		res.fail(1, err.Error())
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // a phase that only sets up attempts one thing: to set up
	}
	res.Correct = res.Failed == 0
	if o.child == "full" {
		res.Metrics["fail_share"] = float64(res.Failed) / float64(res.Attempted)
		res.Metrics["peak_rss_mb"] = peakRSSMB()
	}
}

// spawn runs one phase of one workload in a child process and waits for it.
// A serving workload's process runs on a CPU held for it (holdCPU).
func spawn(o options, phase string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	held := false
	if _, serving := serveSpecs[o.workload]; serving {
		var release func()
		release, held = holdCPU()
		defer release()
	}
	args := []string{"-child", phase, "-workload", o.workload,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-out", o.out}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", o.workload, phase, err)
	}
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s %s: unreadable result: %w", o.workload, phase, err)
	}
	if held {
		res.Params["cpu_held"] = 1
	}
	return &res, nil
}

// untraced measures one workload without tracing, in three processes one
// after the other: two that only set up and one that runs the workload from
// start to finish, so setup_s is the median of three set-ups and every other
// metric comes from one process of its own.
func untraced(o options) (*result, error) {
	phases := []string{"setup", "setup", "full"}
	var all *result
	samples := map[string][]float64{}
	for _, phase := range phases {
		r, err := spawn(o, phase)
		if err != nil {
			return nil, err
		}
		for k, v := range r.Metrics {
			samples[k] = append(samples[k], v)
		}
		if all == nil {
			all = r
			continue
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		all.Failures = append(all.Failures, r.Failures...)
		all.Params = r.Params // sizes are the same in every process
	}
	all.Phase = "full"
	for k, v := range samples {
		all.Metrics[k] = median(v)
	}
	all.Metrics["fail_share"] = float64(all.Failed) / float64(all.Attempted)
	all.Params["processes"] = float64(len(phases))
	return all, writeJSON(filepath.Join(o.out, "result_"+o.workload+".json"), all)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// metricValue is one metric as BENCHMARK.json's contract prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun is BENCHMARK.json's command: one workload, one JSON line. With
// --trace 0 the line carries every end-to-end metric, with --trace 1 every
// per-layer metric (the ones a workload does not exercise read 0).
func driverRun(o options) error {
	full, err := untraced(o)
	if err != nil {
		return err
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{full.Correct, full.Attempted, full.Failed, map[string]metricValue{}}
	defs := driverEndToEnd
	if o.trace == "1" {
		tr, err := spawn(o, "trace")
		if err != nil {
			return err
		}
		line.Correct = line.Correct && tr.Correct
		line.Attempted += tr.Attempted
		line.Failed += tr.Failed
		full.Failures = append(full.Failures, tr.Failures...)
		// The traced run's counts are exact (one client); they supersede
		// the concurrent run's.
		for k, v := range tr.Metrics {
			full.Metrics[k] = v
		}
		defs = driverPerLayer
	}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{full.Metrics[d.Name], d.Unit}
	}
	for _, f := range full.Failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", f)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// humanRun runs every workload (or the one named) and prints every metric
// by name with its unit and direction.
func humanRun(o options) error {
	bad := 0
	for _, w := range workloadNames {
		o.workload = w
		var res *result
		var err error
		if o.trace == "1" {
			res, err = spawn(o, "trace")
		} else {
			res, err = untraced(o)
		}
		if err != nil {
			return err
		}
		printResult(res, o.trace == "1")
		if !res.Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload(s) failed verification", bad)
	}
	return nil
}

func printResult(res *result, traced bool) {
	tag := ""
	if !res.Comparable {
		tag = "  [-quick: NOT COMPARABLE with full runs]"
	}
	fmt.Printf("\n== %s  seed %d, %d s, %s, GOMAXPROCS %d of %d, %s%s\n", res.Workload, res.Env.Seed,
		res.Env.Seconds, res.Env.GoVersion, res.Env.GoMaxProcs, res.Env.NumCPU, res.Env.GitSHA, tag)
	fmt.Printf("   verified %d operations, %d failed\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
	row := func(d metricDef) {
		v, ok := res.Metrics[d.Name]
		if !ok || !d.on(res.Workload) {
			return
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %g%%", 100*d.Bound)
		} else if d.Exact {
			bound = "  bound exact"
		}
		fmt.Printf("   %-42s %14.6g %-7s %s is better%s\n", d.Name, v, d.Unit, d.Better, bound)
	}
	if !traced {
		fmt.Println("  end to end")
		for _, d := range endToEnd {
			row(d)
		}
		if p := res.Params["lat_tail_percentile"]; p != 0 && p < 99 {
			fmt.Printf("   (lat_p95_us and lat_p99_us hold p%g: %g samples support no higher percentile)\n", p, res.Params["lat_samples"])
		}
	}
	fmt.Println("  per layer")
	for _, d := range perLayer {
		row(d)
	}
}

// gitSHA names the tree the result was taken on, "-dirty" when it has
// uncommitted changes, "unknown" outside a git checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(strings.TrimSpace(string(st))) > 0 {
		sha += "-dirty"
	}
	return sha
}

// peakRSSMB is this process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(ln, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimPrefix(ln, "VmHWM:"), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
