package potserve

import (
	"net"
	"testing"
	"time"

	"potgo/internal/objstore"
	"potgo/internal/obs"
)

// newBurstPipe serves a KVBackend, behind a burstProbe, over an in-memory
// net.Pipe, where one client Write of several frames reaches the server's
// read buffer whole — so what the connection loop gathers is decided by the
// test, not by the network.
func newBurstPipe(t *testing.T, reg *obs.Registry) (net.Conn, *burstProbe) {
	t.Helper()
	_, kv := newBenchStore(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	probe := &burstProbe{KVBackend: &KVBackend{KV: kv}}
	s := ServeBackend(ln, probe, reg) // resolves the metric handles
	cs, ss := net.Pipe()
	if !s.track(ss) {
		t.Fatal("server closed")
	}
	s.wg.Add(1)
	go s.handle(ss)
	t.Cleanup(func() {
		cs.Close()
		s.Close()
	})
	cs.SetDeadline(time.Now().Add(10 * time.Second)) // a hung loop fails, not stalls, the test
	return cs, probe
}

func mustFrames(t *testing.T, reqs ...Request) []byte {
	t.Helper()
	var out []byte
	for _, req := range reqs {
		var err error
		if out, err = AppendRequestFrame(out, req); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func readResponse(t *testing.T, c net.Conn, op byte) Response {
	t.Helper()
	frame, err := ReadFrameInto(c, nil)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var resp Response
	if err := DecodeResponseInto(op, frame, &resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp
}

// TestBurstPartialFrame: a request followed by the beginning of another is
// answered at once — a burst of one, since the second frame is incomplete
// until after the answer; the connection loop never waits on the network
// to lengthen a burst or to decide whether to flush.
func TestBurstPartialFrame(t *testing.T) {
	c, probe := newBurstPipe(t, nil)
	second := mustFrames(t, Request{Op: OpGet, Key: 7})
	first := append(mustFrames(t, Request{Op: OpPut, Key: 7, Val: 70}), second[:3]...)
	if _, err := c.Write(first); err != nil {
		t.Fatal(err)
	}
	if resp := readResponse(t, c, OpPut); resp.Status != StatusOK || !resp.Created {
		t.Fatalf("put answered %+v", resp)
	}
	if _, err := c.Write(second[3:]); err != nil {
		t.Fatal(err)
	}
	if resp := readResponse(t, c, OpGet); resp.Status != StatusOK || resp.Val != 70 {
		t.Fatalf("get answered %+v", resp)
	}
	if probe.maxBurst != 1 {
		t.Fatalf("longest burst %d, want 1", probe.maxBurst)
	}
}

// TestBurstMalformedFrame: a frame that does not decode gets StatusErr in
// its position, the requests around it are executed, and the stream stays in
// sync.
func TestBurstMalformedFrame(t *testing.T) {
	c, _ := newBurstPipe(t, nil)
	wire := mustFrames(t, Request{Op: OpPut, Key: 1, Val: 10}, Request{Op: OpPut, Key: 2, Val: 20})
	wire = append(wire, 0, 0, 0, 4, 0xff, 1, 2, 3) // a well-framed body with an unknown opcode
	wire = append(wire, mustFrames(t, Request{Op: OpGet, Key: 2}, Request{Op: OpGet, Key: 1})...)
	if _, err := c.Write(wire); err != nil {
		t.Fatal(err)
	}
	for _, key := range []uint64{1, 2} {
		if resp := readResponse(t, c, OpPut); resp.Status != StatusOK || !resp.Created {
			t.Fatalf("put %d answered %+v", key, resp)
		}
	}
	if frame, err := ReadFrameInto(c, nil); err != nil || len(frame) == 0 || frame[0] != StatusErr {
		t.Fatalf("malformed frame answered %x, %v; want a StatusErr frame", frame, err)
	}
	for _, want := range []uint64{20, 10} {
		if resp := readResponse(t, c, OpGet); resp.Status != StatusOK || resp.Val != want {
			t.Fatalf("get answered %+v, want %d", resp, want)
		}
	}
	if _, err := NewClient(c).Do(Request{Op: OpPing}); err != nil {
		t.Fatalf("ping after the burst: %v", err)
	}
}

// TestBurstMetrics: a burst is still one latency observation and one
// request count per request, by op.
func TestBurstMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c, probe := newBurstPipe(t, reg)
	reqs := []Request{
		{Op: OpPut, Key: 1, Val: 1}, {Op: OpGet, Key: 1}, {Op: OpPut, Key: 2, Val: 2},
		{Op: OpGet, Key: 2}, {Op: OpGet, Key: 3}, {Op: OpTx, Ops: []objstore.BatchOp{{Key: 4, Val: 4}}},
	}
	resps, err := NewClient(c).PipelineAppend(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(reqs) {
		t.Fatalf("%d responses, want %d", len(resps), len(reqs))
	}
	if probe.maxBurst != len(reqs) {
		t.Fatalf("longest burst %d, want %d: the requests were not one burst", probe.maxBurst, len(reqs))
	}
	snap := reg.Snapshot()
	for op, want := range map[string]uint64{"put": 2, "get": 3, "tx": 1, "scan": 0} {
		if got := snap.Counters["potserve.requests."+op]; got != want {
			t.Errorf("potserve.requests.%s = %d, want %d", op, got, want)
		}
		if got := snap.Histograms["potserve.latency_us."+op].Count; got != want {
			t.Errorf("potserve.latency_us.%s has %d observations, want %d", op, got, want)
		}
	}
}

// TestBufGrowsCountsScanScratch: potserve.wire.buf_grows counts a scan
// result that outgrows its slot's KVs scratch after warm-up, though no
// frame, slot or output buffer grows with it.
func TestBufGrowsCountsScanScratch(t *testing.T) {
	reg := obs.NewRegistry()
	conn, _ := newBurstPipe(t, reg)
	c := NewClient(conn)
	var reqs []Request
	for k := uint64(0); k < 64; k++ {
		reqs = append(reqs, Request{Op: OpPut, Key: k, Val: k})
	}
	for k := uint64(0); k < 64; k++ {
		reqs = append(reqs, Request{Op: OpGet, Key: k})
	}
	// Warm-up: one burst of puts and gets sizes the output buffer past a
	// 32-pair scan response, and a 2-pair scan gives slot 0 its first KVs
	// scratch.
	if _, err := c.PipelineAppend(reqs, nil); err != nil {
		t.Fatal(err)
	}
	if kvs, err := c.Scan(0, 2); err != nil || len(kvs) != 2 {
		t.Fatalf("scan 2: %d pairs, %v", len(kvs), err)
	}
	grows := func() uint64 { return reg.Snapshot().Counters["potserve.wire.buf_grows"] }
	before := grows()
	if kvs, err := c.Scan(0, 32); err != nil || len(kvs) != 32 {
		t.Fatalf("scan 32: %d pairs, %v", len(kvs), err)
	}
	if got := grows(); got != before+1 {
		t.Fatalf("buf_grows %d after a larger scan, want %d", got, before+1)
	}
}
