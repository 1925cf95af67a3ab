package potserve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"potgo/internal/objstore"
	"potgo/internal/obs"
	"potgo/internal/pmem"
)

// latencyBounds are the request-latency histogram bucket upper bounds in
// microseconds (1µs .. ~1s, roughly x4 per bucket).
var latencyBounds = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// flushBytes bounds the per-connection response buffer: a deep pipeline's
// responses are written out once the buffer passes this size even if more
// requests are already waiting, so the buffer's steady-state capacity stays
// small while a burst still costs ~one syscall.
const flushBytes = 64 << 10

// Backend executes a connection's pipelined requests a burst at a time:
// ExecBurst executes reqs in order, filling resps[i] for reqs[i] (reusing
// its KVs / Entries capacity as scratch). The server hands it every request
// already complete in the connection's read buffer, never waiting for more.
// The single-node backend runs the burst request by request against an
// objstore.KV; a cluster node adds ownership checks and replicates the
// burst's writes with one round trip per peer. ExecBurst is called
// concurrently from every connection handler and must be safe for that.
type Backend interface {
	ExecBurst(reqs []Request, resps []Response)
}

// maxBurst bounds the requests handed to one ExecBurst, and with it how long
// the first response of a burst waits for the last request's execution.
const maxBurst = 128

// Server serves the potserve wire protocol over a Backend. One goroutine
// per connection executes that connection's requests in arrival order
// (pipelined: responses accumulate in a per-connection buffer and are
// written with one conn.Write when the connection has no further request
// ready), while different connections run concurrently — the sharded heap
// below provides the isolation.
//
// The request path performs zero heap allocations per request in steady
// state: the frame buffer, decoded Request (including its TX ops), Response
// (including its scan result) and the outgoing response buffer all live for
// the connection and are reused; metric handles are resolved once at Serve,
// not per request. TestServeAllocs gates this.
type Server struct {
	backend Backend
	reg     *obs.Registry
	ln      net.Listener

	// Per-op metric handles, indexed by opcode (decoders reject anything
	// above opMax). Resolved once: obs.Registry lookups are a lock and a
	// map access plus a name allocation, far too heavy per request. All
	// handles are nil-safe no-ops when reg is nil.
	latHist   [opMax + 1]*obs.Histogram
	reqCount  [opMax + 1]*obs.Counter
	connCount *obs.Counter
	protoErrs *obs.Counter
	reqErrs   *obs.Counter
	// corrupts counts StatusCorrupt responses: reads that tripped a
	// checksum on an object the store could not repair from parity.
	corrupts *obs.Counter
	// bufGrows counts reallocations of any per-connection wire buffer — the
	// observable "wire allocs": zero after warm-up.
	bufGrows *obs.Counter

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// Serve starts serving on ln over kv directly (single-node mode). It
// returns immediately; the accept loop and all connection handlers run on
// background goroutines until Close. reg may be nil (metrics disabled).
func Serve(ln net.Listener, kv *objstore.KV, reg *obs.Registry) *Server {
	return ServeBackend(ln, &KVBackend{KV: kv}, reg)
}

// ServeBackend is Serve over an arbitrary Backend (e.g. a cluster node).
func ServeBackend(ln net.Listener, backend Backend, reg *obs.Registry) *Server {
	s := &Server{backend: backend, reg: reg, ln: ln, conns: make(map[net.Conn]struct{})}
	for op := OpGet; op <= opMax; op++ {
		s.latHist[op] = reg.Histogram("potserve.latency_us."+opName(op), latencyBounds...)
		s.reqCount[op] = reg.Counter("potserve.requests." + opName(op))
	}
	s.connCount = reg.Counter("potserve.connections")
	s.protoErrs = reg.Counter("potserve.protocol_errors")
	s.reqErrs = reg.Counter("potserve.request_errors")
	s.corrupts = reg.Counter("potserve.corrupt_responses")
	s.bufGrows = reg.Counter("potserve.wire.buf_grows")
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address (e.g. to dial an OS-assigned port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the accept loop, closes every live connection and waits for
// the handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // Close shut the listener down
		}
		if !s.track(c) {
			c.Close()
			return
		}
		s.connCount.Add(1)
		s.wg.Add(1)
		go s.handle(c)
	}
}

// opName labels metrics; unknown opcodes never reach it (the decoder
// rejects them first).
func opName(op byte) string {
	switch op {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDel:
		return "del"
	case OpScan:
		return "scan"
	case OpTx:
		return "tx"
	case OpPing:
		return "ping"
	case OpSub:
		return "sub"
	case OpRep:
		return "rep"
	case OpAck:
		return "ack"
	case OpTopo:
		return "topo"
	}
	return "unknown"
}

// appendErrFrame appends a StatusErr frame (which cannot itself fail to
// encode) to out.
func appendErrFrame(out []byte, msg string) []byte {
	hdr := len(out)
	out = append(out, 0, 0, 0, 0)
	out = append(out, StatusErr)
	out = append(out, msg...)
	binary.BigEndian.PutUint32(out[hdr:], uint32(len(out)-hdr-4))
	return out
}

// handle is the connection loop: gather every request already complete in
// the read buffer, execute them as one burst, encode the responses in
// order. Gathering costs a lone request nothing — the burst is whatever is
// buffered. A single node used to get a one-request loop instead; the
// change to this loop, measured whole in alternating 18 s pairs on a 2-CPU
// host (bench/run.sh), moved serve_read ops_per_s from 532k to 534k (7/10
// pairs) and serve_write from 128k to 139k (4/6), and left every
// end-to-end metric inside the old loop's own spread. A Request/Response
// slot per burst position is connection-lifetime scratch (decoding copies
// everything out of the frame, so one frame buffer serves the whole
// burst), as is the outgoing byte buffer: the loop allocates nothing per
// request in steady state.
func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	defer s.untrack(c)
	defer c.Close()

	br := bufio.NewReader(c)
	var (
		frame []byte
		reqs  []Request
		resps []Response
		out   []byte
		caps  [6]int // previous capacities, for the buf_grows counter
	)
	for {
		// The first frame blocks; later ones join only while a whole frame
		// is buffered, so a burst never waits on the network. A malformed
		// frame ends the burst and is answered after it, in its position.
		n := 0
		var bad error
		for {
			var err error
			frame, err = ReadFrameInto(br, frame)
			if err != nil {
				// A clean EOF between frames is the peer hanging up; anything
				// else (truncation, oversized prefix) is a protocol error and
				// the connection is beyond recovery either way.
				if !errors.Is(err, io.EOF) {
					s.protoErrs.Add(1)
				}
				return
			}
			if n == len(reqs) {
				reqs = append(reqs, Request{})
				resps = append(resps, Response{})
			}
			if bad = DecodeRequestInto(frame, &reqs[n]); bad != nil {
				break
			}
			n++
			if n == maxBurst || !frameBuffered(br) {
				break
			}
		}
		if n > 0 {
			start := time.Now()
			s.backend.ExecBurst(reqs[:n], resps[:n])
			// Every request of the burst is answered when the burst is, so
			// the burst's time is each request's latency.
			us := float64(time.Since(start).Microseconds())
			for i := 0; i < n; i++ {
				out = s.answer(out, reqs[i].Op, &resps[i], us)
			}
		}
		if bad != nil {
			// The frame boundary survived, so the stream is still in sync:
			// answer StatusErr and keep the connection.
			s.protoErrs.Add(1)
			out = appendErrFrame(out, bad.Error())
		}
		// Slots are never discarded, so the summed Tx-ops and scan scratch
		// capacities rise only when some slot's scratch grows.
		ops, kvs := 0, 0
		for i := range reqs {
			ops += cap(reqs[i].Ops)
			kvs += cap(resps[i].KVs)
		}
		s.noteGrowth(&caps, [6]int{cap(frame), cap(reqs), cap(resps), cap(out), ops, kvs})
		// Write once no further request is buffered (a burst costs one
		// syscall of responses, a lone request is answered at once), or
		// when the response buffer is past its flush bound.
		if !frameBuffered(br) || len(out) >= flushBytes {
			if _, err := c.Write(out); err != nil {
				return
			}
			out = out[:0]
		}
	}
}

// frameBuffered reports whether the read buffer holds a whole frame, so
// reading it cannot block. An oversized length prefix reports false: the
// next blocking read fails on it.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	n := binary.BigEndian.Uint32(hdr)
	return n <= MaxFrame && br.Buffered()-4 >= int(n)
}

// answer accounts one executed request (us is its latency in microseconds)
// and appends its response frame to out.
func (s *Server) answer(out []byte, op byte, resp *Response, us float64) []byte {
	s.latHist[op].Observe(us)
	s.reqCount[op].Add(1)
	if resp.Status == StatusErr {
		s.reqErrs.Add(1)
	}
	if resp.Status == StatusCorrupt {
		s.corrupts.Add(1)
	}
	out, err := AppendResponseFrame(out, op, *resp)
	if err != nil {
		out = appendErrFrame(out, err.Error())
	}
	return out
}

// noteGrowth bumps the wire-allocation counter whenever a per-connection
// scratch buffer had to grow; in steady state every capacity is stable and
// this observes nothing.
func (s *Server) noteGrowth(caps *[6]int, now [6]int) {
	for i, c := range now {
		if c > caps[i] {
			if caps[i] > 0 {
				s.bufGrows.Add(1)
			}
			caps[i] = c
		}
	}
}

// KVBackend is the single-node Backend: requests run straight against the
// store. Replication ops answer StatusErr — a lone node has no peers.
type KVBackend struct {
	KV *objstore.KV
}

// ExecBurst runs the burst's requests through Exec in order.
func (b *KVBackend) ExecBurst(reqs []Request, resps []Response) {
	for i := range reqs {
		b.Exec(&reqs[i], &resps[i])
	}
}

// Exec runs one decoded request against the store, reusing resp's KVs
// capacity for scan results.
func (b *KVBackend) Exec(req *Request, resp *Response) {
	kvs := resp.KVs[:0]
	*resp = Response{KVs: kvs}
	switch req.Op {
	case OpGet:
		val, ok, err := b.KV.Get(req.Key)
		switch {
		// The store already tried an inline repair before surfacing
		// ErrCorrupt; answer StatusCorrupt rather than tearing the
		// connection down — the stream is in sync and every other key
		// is still servable. Graceful degradation, never wrong data.
		case err != nil && errors.Is(err, pmem.ErrCorrupt):
			resp.Status = StatusCorrupt
		case err != nil:
			resp.Status, resp.Msg = StatusErr, err.Error()
		case !ok:
			resp.Status = StatusNotFound
		default:
			resp.Status, resp.Val = StatusOK, val
		}
	case OpPut:
		created, err := b.KV.Put(req.Key, req.Val)
		if err != nil {
			resp.Status, resp.Msg = StatusErr, err.Error()
			return
		}
		resp.Status, resp.Created = StatusOK, created
	case OpDel:
		existed, err := b.KV.Delete(req.Key)
		switch {
		case err != nil:
			resp.Status, resp.Msg = StatusErr, err.Error()
		case !existed:
			resp.Status = StatusNotFound
		default:
			resp.Status = StatusOK
		}
	case OpScan:
		kvs, err := b.KV.ScanAppend(kvs, req.From, int(req.Max))
		resp.KVs = kvs
		if err != nil {
			if errors.Is(err, pmem.ErrCorrupt) {
				resp.KVs = kvs[:0]
				resp.Status = StatusCorrupt
				return
			}
			resp.Status, resp.Msg = StatusErr, err.Error()
			return
		}
		resp.Status = StatusOK
	case OpTx:
		if err := b.KV.Batch(req.Ops); err != nil {
			resp.Status, resp.Msg = StatusErr, err.Error()
			return
		}
		resp.Status = StatusOK
	case OpPing:
		resp.Status = StatusOK
	default:
		resp.Status, resp.Msg = StatusErr, fmt.Sprintf("potserve: unhandled op %d", req.Op)
	}
}
