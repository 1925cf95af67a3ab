package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"potgo/internal/cluster"
	"potgo/internal/potserve"
)

// pipe is one client connection: it sends a batch of requests and returns
// their responses in request order.
type pipe interface {
	Do(reqs []potserve.Request, resps []potserve.Response) ([]potserve.Response, error)
}

type servePipe struct{ c *potserve.Client }

func (p servePipe) Do(reqs []potserve.Request, resps []potserve.Response) ([]potserve.Response, error) {
	return p.c.PipelineAppend(reqs, resps)
}

type clusterPipe struct{ c *cluster.Client }

func (p clusterPipe) Do(reqs []potserve.Request, _ []potserve.Response) ([]potserve.Response, error) {
	return p.c.Pipeline(reqs)
}

// worker drives one connection with its own stream and model. Every response
// that comes back is checked; nothing is sampled.
type worker struct {
	p pipe
	s *stream

	reqs  []potserve.Request
	idxs  []int
	resps []potserve.Response

	attempted, failed, quorumFails int64
	gets, writes                   int64
	firstFail                      string
}

// send issues one pipelined batch of n requests drawn from next and verifies
// every response. A transport error fails the whole batch and is returned:
// the connection is gone and the run cannot go on.
func (w *worker) send(n int, next func() (potserve.Request, int)) error {
	w.reqs, w.idxs = w.reqs[:0], w.idxs[:0]
	for i := 0; i < n; i++ {
		req, idx := next()
		if req.Op == potserve.OpGet {
			w.gets++
		} else {
			w.writes++
		}
		w.reqs = append(w.reqs, req)
		w.idxs = append(w.idxs, idx)
	}
	w.attempted += int64(n)
	resps, err := w.p.Do(w.reqs, w.resps)
	if err != nil {
		w.fail(int64(n), "transport: "+err.Error())
		return err
	}
	w.resps = resps
	for i := range w.reqs {
		if msg := w.s.check(&w.reqs[i], w.idxs[i], &resps[i]); msg != "" {
			if strings.Contains(msg, "quorum") {
				w.quorumFails++
			}
			w.fail(1, fmt.Sprintf("key %d: %s", w.reqs[i].Key, msg))
		}
	}
	return nil
}

func (w *worker) fail(n int64, msg string) {
	w.failed += n
	if w.firstFail == "" {
		w.firstFail = msg
	}
}

// each runs fn on every worker concurrently and returns the first error.
func each(ws []*worker, fn func(i int, w *worker) error) error {
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			errs[i] = fn(i, w)
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

const sweepBatch = 256

// preload PUTs every key the workload starts with, through the connection
// that owns it, and checks each was created. The connections load one after
// the other, in key order: the order in which objects are first published
// decides where they sit in the store's volatile indices (pmem.MVCC chains
// its entries newest first), and two connections racing each other left a
// store that served reads anywhere between 260 000 and 460 000 ops/s, a new
// draw with every set-up. Loaded in a fixed order the store is the same
// store every time.
func preload(ws []*worker, half bool) error {
	for _, w := range ws {
		s := w.s
		idx := 0
		next := func() (potserve.Request, int) {
			for !preloaded(idx, s.shards, half) {
				idx++
			}
			key := keyOf(idx, s.conn, s.conns, s.shards)
			idx++
			return potserve.Request{Op: potserve.OpPut, Key: key, Val: mix64(key) | 1}, idx - 1
		}
		total := 0
		for i := 0; i < s.nKeys; i++ {
			if preloaded(i, s.shards, half) {
				total++
			}
		}
		for done := 0; done < total; done += sweepBatch {
			if err := w.send(min(sweepBatch, total-done), next); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweep GETs every key of every model and checks presence and value.
func sweep(ws []*worker) error {
	return each(ws, func(_ int, w *worker) error {
		s := w.s
		idx := 0
		next := func() (potserve.Request, int) {
			idx++
			return potserve.Request{Op: potserve.OpGet, Key: keyOf(idx-1, s.conn, s.conns, s.shards)}, idx - 1
		}
		for done := 0; done < s.nKeys; done += sweepBatch {
			if err := w.send(min(sweepBatch, s.nKeys-done), next); err != nil {
				return err
			}
		}
		return nil
	})
}

// closedResult is what a closed-loop phase measured.
type closedResult struct {
	ops  int           // requests completed, all workers
	wall time.Duration // common start to last completion
	// done[w][b] is when worker w's b-th batch came back, from the common
	// start; every batch but a worker's last holds depth requests.
	done  [][]time.Duration
	depth int
}

// closedLoop has every worker issue ops requests in pipelined batches of
// depth, the next batch leaving only when the last has come back.
func closedLoop(ws []*worker, ops, depth int) (closedResult, error) {
	r := closedResult{ops: len(ws) * ops, done: make([][]time.Duration, len(ws)), depth: depth}
	start := time.Now()
	err := each(ws, func(i int, w *worker) error {
		done := make([]time.Duration, 0, ops/depth+1)
		defer func() { r.done[i] = done }()
		for sent := 0; sent < ops; sent += depth {
			if err := w.send(min(depth, ops-sent), w.s.next); err != nil {
				return err
			}
			done = append(done, time.Since(start))
		}
		return nil
	})
	r.wall = time.Since(start)
	return r, err
}

// closedSlice is the length of the slices a closed-loop phase is cut into.
const closedSlice = 100 * time.Millisecond

// opsPerSecond is the phase's throughput: requests completed per second in
// each of the slices the phase is cut into, and of those the third quartile,
// the figure for the faster quarter of the phase. A stall of the host lowers
// the slices it falls in and leaves the quartile alone, where it would lower
// requests / wall time (which runServe reports beside it) by its full
// length; so would a stall of the program's own, as long as it spares a
// quarter of the phase. A phase too short for eight whole slices (a -quick
// smoke) reports requests / wall.
func (r closedResult) opsPerSecond() (rate float64, slices int) {
	n := int(r.wall / closedSlice)
	if n < 8 {
		return float64(r.ops) / r.wall.Seconds(), 0
	}
	perSlice := make([]float64, n)
	perWorker := r.ops / len(r.done)
	for _, done := range r.done {
		for b, at := range done {
			if k := int(at / closedSlice); k < n {
				perSlice[k] += float64(min(r.depth, perWorker-b*r.depth))
			}
		}
	}
	for k := range perSlice {
		perSlice[k] /= closedSlice.Seconds()
	}
	sort.Float64s(perSlice)
	return percentile(perSlice, 75), n
}

// openResult is what an open-loop phase measured.
type openResult struct {
	// latUs[w][k] is worker w's latency at tick k: one sample per batch,
	// shared by every request in it.
	latUs [][]float64
	// behindUs[w][k] is how long after tick k was due worker w sent its
	// batch: the generator's own lateness, which the latency includes.
	behindUs           [][]float64
	batches, late      int
	requests, overLim  int64
	generatorBehindMax time.Duration
}

// openLoop sends, on every worker, one pipelined batch of perTick requests
// per tick for ticks ticks, whether or not the system keeps up. The workers'
// ticks are staggered evenly within the tick, so arrivals are evenly spaced
// rather than in bursts of one batch per connection. A request's latency
// runs from the tick at which it was due, not from when it was actually
// sent, so a stall is charged to every request it delays. No tick is
// skipped: a generator that falls behind sends the overdue batches back to
// back and they are counted late.
func openLoop(ws []*worker, perTick, ticks int, tick, limit time.Duration) (openResult, error) {
	results := make([]openResult, len(ws))
	lats, behinds := make([][]float64, len(ws)), make([][]float64, len(ws))
	start := time.Now().Add(5 * time.Millisecond)
	err := each(ws, func(i int, w *worker) error {
		r := &results[i]
		lats[i], behinds[i] = make([]float64, 0, ticks), make([]float64, 0, ticks)
		timer := newDueTimer()
		defer timer.close()
		for k := 0; k < ticks; k++ {
			due := start.Add(time.Duration(k)*tick + time.Duration(i)*tick/time.Duration(len(ws)))
			timer.waitUntil(due)
			behind := time.Since(due)
			behinds[i] = append(behinds[i], float64(behind.Nanoseconds())/1e3)
			if behind > tick {
				r.late++
			}
			if behind > r.generatorBehindMax {
				r.generatorBehindMax = behind
			}
			failedBefore := w.failed
			if err := w.send(perTick, w.s.next); err != nil {
				return err
			}
			lat := time.Since(due)
			lats[i] = append(lats[i], float64(lat.Nanoseconds())/1e3)
			r.batches++
			r.requests += int64(perTick)
			if lat > limit {
				r.overLim += int64(perTick)
			} else {
				// A failed request misses every limit.
				r.overLim += w.failed - failedBefore
			}
		}
		return nil
	})
	sum := openResult{latUs: lats, behindUs: behinds}
	for _, r := range results {
		sum.batches += r.batches
		sum.late += r.late
		sum.requests += r.requests
		sum.overLim += r.overLim
		if r.generatorBehindMax > sum.generatorBehindMax {
			sum.generatorBehindMax = r.generatorBehindMax
		}
	}
	return sum, err
}

// openSlice is the number of ticks in the slices an open-loop phase is cut
// into: with two connections a slice holds 500 batches, which support a p95
// (25 samples beyond it).
const openSlice = 250

// latency is the phase's latency. Each of p50 and p95 is taken over the
// batches of one slice of openSlice ticks, and of the slices' values the
// first quartile is reported: the figure for the calmest quarter of the
// phase. The host disturbs an open loop, which sleeps between ticks, in
// episodes of a few seconds that leave the median batch 10% slower and
// double the p95 (README.md, "Steadiness"); they are a third of some runs
// and none of others, so the median over the slices still spread by 40% run
// to run where the first quartile spreads by 2-4%. What the quartile cannot
// see is a disturbance of the program's own that spares a quarter of the
// phase; the p99, which has too few samples in a slice and is read off the
// whole phase, sees those. A phase shorter than four slices (a -quick
// smoke) is summarised whole.
func (r openResult) latency() timing {
	var all []float64
	ticks := 0
	for _, lats := range r.latUs {
		all = append(all, lats...)
		ticks = max(ticks, len(lats))
	}
	whole := summarise(all)
	n := ticks / openSlice
	if n < 4 {
		return whole
	}
	p50s, p95s := make([]float64, n), make([]float64, n)
	for k := 0; k < n; k++ {
		var slice []float64
		for _, lats := range r.latUs {
			slice = append(slice, lats[min(k*openSlice, len(lats)):min((k+1)*openSlice, len(lats))]...)
		}
		t := summarise(slice)
		p50s[k], p95s[k] = t.P50, t.P95
	}
	sort.Float64s(p50s)
	sort.Float64s(p95s)
	whole.P50, whole.P95, whole.Slices = percentile(p50s, 25), percentile(p95s, 25), n
	return whole
}
