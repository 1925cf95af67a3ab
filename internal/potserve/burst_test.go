package potserve

import (
	"net"
	"testing"
	"time"

	"potgo/internal/objstore"
	"potgo/internal/obs"
)

// newBurstPipe serves a burstStub over an in-memory net.Pipe, where one
// client Write of several frames reaches the server's read buffer whole —
// so what the burst loop gathers is decided by the test, not by the network.
func newBurstPipe(t *testing.T, reg *obs.Registry) (net.Conn, *burstStub) {
	t.Helper()
	_, kv := newBenchStore(t)
	stub := &burstStub{KVBackend: &KVBackend{KV: kv}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := ServeBackend(ln, stub, reg) // resolves the metric handles
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
	return cs, stub
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
	frame, err := ReadFrame(c)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	resp, err := DecodeResponse(op, frame)
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp
}

// TestBurstPartialFrame: a request followed by the beginning of another is
// answered at once; the burst loop never waits on the network to lengthen a
// burst or to decide whether to flush.
func TestBurstPartialFrame(t *testing.T) {
	c, stub := newBurstPipe(t, nil)
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
	if stub.maxBurst != 1 {
		t.Fatalf("longest burst %d, want 1", stub.maxBurst)
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
	if frame, err := ReadFrame(c); err != nil || len(frame) == 0 || frame[0] != StatusErr {
		t.Fatalf("malformed frame answered %x, %v; want a StatusErr frame", frame, err)
	}
	for _, want := range []uint64{20, 10} {
		if resp := readResponse(t, c, OpGet); resp.Status != StatusOK || resp.Val != want {
			t.Fatalf("get answered %+v, want %d", resp, want)
		}
	}
	if err := NewClient(c).Ping(); err != nil {
		t.Fatalf("ping after the burst: %v", err)
	}
}

// TestBurstMetrics: a burst is still one latency observation and one
// request count per request, by op.
func TestBurstMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c, stub := newBurstPipe(t, reg)
	reqs := []Request{
		{Op: OpPut, Key: 1, Val: 1}, {Op: OpGet, Key: 1}, {Op: OpPut, Key: 2, Val: 2},
		{Op: OpGet, Key: 2}, {Op: OpGet, Key: 3}, {Op: OpTx, Ops: []objstore.BatchOp{{Key: 4, Val: 4}}},
	}
	resps, err := NewClient(c).Pipeline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(reqs) || stub.maxBurst != len(reqs) {
		t.Fatalf("%d responses, longest burst %d, want %d of both", len(resps), stub.maxBurst, len(reqs))
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
