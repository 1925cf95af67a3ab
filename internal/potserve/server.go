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

// Backend executes one decoded request, filling resp (reusing its KVs /
// Entries capacity as scratch). The default backend runs requests straight
// against an objstore.KV; a cluster node wraps that with ownership checks
// and log replication. Exec is called concurrently from every connection
// handler and must be safe for that.
type Backend interface {
	Exec(req *Request, resp *Response)
}

// BurstBackend is a Backend that gains from seeing a connection's pipelined
// requests together (a cluster node replicates a burst's writes with one
// round trip per peer): ExecBurst executes reqs in order, filling resps[i]
// for reqs[i] under Exec's scratch rules. The server hands it every request
// already complete in the connection's read buffer, never waiting for more.
// A plain Backend gets one request at a time: gathering costs the
// single-node read path more than it saves.
type BurstBackend interface {
	Backend
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

func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	defer s.untrack(c)
	defer c.Close()

	br := bufio.NewReader(c)
	if bb, ok := s.backend.(BurstBackend); ok {
		s.handleBursts(c, br, bb)
		return
	}
	// Connection-lifetime scratch: the frame buffer, the decoded request
	// (whose Ops slice is the TX scratch), the response (whose KVs slice is
	// the scan scratch) and the outgoing byte buffer.
	var (
		frame []byte
		req   Request
		resp  Response
		out   []byte
		caps  [4]int // previous capacities, for the buf_grows counter
	)
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
		if err := DecodeRequestInto(frame, &req); err != nil {
			// The frame boundary survived, so the stream is still in sync:
			// answer StatusErr and keep the connection.
			s.protoErrs.Add(1)
			out = appendErrFrame(out, err.Error())
		} else {
			start := time.Now()
			s.backend.Exec(&req, &resp)
			out = s.answer(out, req.Op, &resp, float64(time.Since(start).Microseconds()))
		}
		s.noteGrowth(&caps, [4]int{cap(frame), cap(req.Ops), cap(resp.KVs), cap(out)})
		// Pipelining: only write when no further request is already
		// buffered (a burst of N requests costs one syscall of responses,
		// while a lone request is answered immediately), or when the
		// response buffer is past its flush bound.
		if br.Buffered() == 0 || len(out) >= flushBytes {
			if _, err := c.Write(out); err != nil {
				return
			}
			out = out[:0]
		}
	}
}

// handleBursts is the connection loop over a BurstBackend: gather every
// request already complete in the read buffer, execute them as one burst,
// encode the responses in order. Same zero-allocation contract as the
// single-request loop, with a Request/Response slot per burst position as
// connection-lifetime scratch (decoding copies everything out of the frame,
// so one frame buffer serves the whole burst).
func (s *Server) handleBursts(c net.Conn, br *bufio.Reader, bb BurstBackend) {
	var (
		frame []byte
		reqs  []Request
		resps []Response
		out   []byte
		caps  [4]int
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
			bb.ExecBurst(reqs[:n], resps[:n])
			// Every request of the burst is answered when the burst is, so
			// the burst's time is each request's latency.
			us := float64(time.Since(start).Microseconds())
			for i := 0; i < n; i++ {
				out = s.answer(out, reqs[i].Op, &resps[i], us)
			}
		}
		if bad != nil {
			s.protoErrs.Add(1)
			out = appendErrFrame(out, bad.Error())
		}
		s.noteGrowth(&caps, [4]int{cap(frame), cap(reqs), cap(resps), cap(out)})
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
func (s *Server) noteGrowth(caps *[4]int, now [4]int) {
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
