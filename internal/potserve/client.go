package potserve

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"potgo/internal/objstore"
	"potgo/internal/pds"
)

// Client is one connection to a potserve server. Its synchronous methods
// (Get, Put, ...) issue one request and wait for the response; Pipeline
// sends a whole batch of requests before reading any response, exercising
// the server's pipelined execution. A Client is not safe for concurrent
// use; open one per goroutine (the server handles connections
// concurrently).
//
// Requests accumulate as complete frames in one connection-lifetime buffer
// and go out with a single conn.Write per flush point; the response frame
// buffer is likewise reused. Steady-state gets, puts, deletes, transactions
// and pings allocate nothing on the client either (scan results are fresh
// slices — they outlive the call).
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	out     []byte // unsent request frames
	frame   []byte // response frame scratch
	timeout time.Duration
}

// ServerError is a failure the server reported in a StatusErr response.
// The connection is healthy and the response stream in sync — the
// request was executed (or rejected) exactly once — so the retry layer
// never retries one.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "potserve: server: " + e.Msg }

// Dial connects to a potserve server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// DialTimeout connects to a potserve server, failing if the connection is
// not established within d.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// SetTimeout bounds every subsequent round trip (request write through
// response read) to d; zero restores blocking I/O. A timed-out call
// leaves the response stream out of sync, so the connection must be
// closed, not reused — the replication layer treats a timeout as a
// failed ack and redials.
func (c *Client) SetTimeout(d time.Duration) {
	c.timeout = d
	if d == 0 {
		c.conn.SetDeadline(time.Time{})
	}
}

// arm applies the round-trip deadline, if one is set.
func (c *Client) arm() error {
	if c.timeout == 0 {
		return nil
	}
	return c.conn.SetDeadline(time.Now().Add(c.timeout))
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReader(conn)}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one request and reads its response.
func (c *Client) roundTrip(req Request) (Response, error) {
	if err := c.arm(); err != nil {
		return Response{}, err
	}
	if err := c.send(req); err != nil {
		return Response{}, err
	}
	if err := c.flush(); err != nil {
		return Response{}, err
	}
	return c.recv(req.Op)
}

func (c *Client) send(req Request) error {
	out, err := AppendRequestFrame(c.out, req)
	c.out = out
	return err
}

func (c *Client) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	_, err := c.conn.Write(c.out)
	c.out = c.out[:0]
	return err
}

func (c *Client) recv(op byte) (Response, error) {
	frame, err := ReadFrameInto(c.br, c.frame)
	if err != nil {
		return Response{}, err
	}
	c.frame = frame
	resp, err := DecodeResponse(op, frame)
	if err != nil {
		return Response{}, err
	}
	switch resp.Status {
	case StatusErr:
		return resp, &ServerError{Msg: resp.Msg}
	case StatusCorrupt:
		return resp, ErrCorrupt
	case StatusNotOwner:
		return resp, ErrNotOwner
	}
	return resp, nil
}

// Pipeline sends every request, flushes once, then reads every response in
// order. A server-side StatusErr is returned in its Response, not as an
// error, so one failed op does not hide the others' results.
func (c *Client) Pipeline(reqs []Request) ([]Response, error) {
	return c.PipelineAppend(reqs, nil)
}

// PipelineAppend is Pipeline appending into resps (truncated and reused,
// element scratch included), so a benchmark loop recycling its response
// slice drives the full round trip without allocating. The returned
// responses — scan results included — are only valid until the next
// PipelineAppend with the same slice.
func (c *Client) PipelineAppend(reqs []Request, resps []Response) ([]Response, error) {
	if err := c.arm(); err != nil {
		return nil, err
	}
	for _, req := range reqs {
		if err := c.send(req); err != nil {
			return nil, err
		}
	}
	if err := c.flush(); err != nil {
		return nil, err
	}
	resps = resps[:0]
	for _, req := range reqs {
		frame, err := ReadFrameInto(c.br, c.frame)
		if err != nil {
			return nil, err
		}
		c.frame = frame
		// Recycle the slot past the length when the backing array has one,
		// keeping its KVs scratch alive for DecodeResponseInto.
		var resp *Response
		if cap(resps) > len(resps) {
			resps = resps[:len(resps)+1]
			resp = &resps[len(resps)-1]
		} else {
			resps = append(resps, Response{})
			resp = &resps[len(resps)-1]
		}
		if err := DecodeResponseInto(req.Op, frame, resp); err != nil {
			return nil, err
		}
	}
	return resps, nil
}

// Get fetches a key; ok reports presence.
func (c *Client) Get(key uint64) (val uint64, ok bool, err error) {
	resp, err := c.roundTrip(Request{Op: OpGet, Key: key})
	if err != nil {
		return 0, false, err
	}
	return resp.Val, resp.Status == StatusOK, nil
}

// Put upserts a key; created reports whether it was absent.
func (c *Client) Put(key, val uint64) (created bool, err error) {
	resp, err := c.roundTrip(Request{Op: OpPut, Key: key, Val: val})
	if err != nil {
		return false, err
	}
	return resp.Created, nil
}

// Delete removes a key; existed reports whether it was present.
func (c *Client) Delete(key uint64) (existed bool, err error) {
	resp, err := c.roundTrip(Request{Op: OpDel, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Status == StatusOK, nil
}

// Scan returns up to max pairs with key >= from, ascending.
func (c *Client) Scan(from uint64, max int) ([]pds.KV, error) {
	if max < 0 || max > MaxScan {
		return nil, fmt.Errorf("potserve: scan max %d out of range [0, %d]", max, MaxScan)
	}
	resp, err := c.roundTrip(Request{Op: OpScan, From: from, Max: uint32(max)})
	if err != nil {
		return nil, err
	}
	return resp.KVs, nil
}

// Tx applies a batch atomically: all ops commit in one heap transaction or
// none do.
func (c *Client) Tx(ops []objstore.BatchOp) error {
	_, err := c.roundTrip(Request{Op: OpTx, Ops: ops})
	return err
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, err := c.roundTrip(Request{Op: OpPing})
	return err
}

// Sub fetches origin's applied log entries with Seq > fromSeq (replication
// catch-up). The entries are fresh — they outlive the call.
func (c *Client) Sub(origin uint32, fromSeq uint64) ([]RepEntry, error) {
	resp, err := c.roundTrip(Request{Op: OpSub, Origin: origin, Seq: fromSeq})
	if err != nil {
		return nil, err
	}
	out := make([]RepEntry, len(resp.Entries))
	copy(out, resp.Entries)
	return out, nil
}

// Rep appends origin's log entries on the peer at the sender's topology
// epoch and returns the peer's applied watermark for that origin — the
// replication ack. A watermark covering every sent entry means the peer
// holds them durably.
func (c *Client) Rep(origin uint32, senderEpoch uint64, entries []RepEntry) (watermark uint64, err error) {
	if err := c.RepSend(origin, senderEpoch, entries); err != nil {
		return 0, err
	}
	return c.RepRecv()
}

// RepSend is the first half of Rep: it puts the REP frame on the wire and
// returns without waiting, so a coordinator can have a frame in flight to
// every peer before it awaits any ack. Each RepSend must be followed by one
// RepRecv on the same client before any other call.
func (c *Client) RepSend(origin uint32, senderEpoch uint64, entries []RepEntry) error {
	if err := c.arm(); err != nil {
		return err
	}
	if err := c.send(Request{Op: OpRep, Origin: origin, Epoch: senderEpoch, Entries: entries}); err != nil {
		return err
	}
	return c.flush()
}

// RepRecv is the second half of Rep: it reads the ack of the frame RepSend
// sent, under the round-trip deadline RepSend armed.
func (c *Client) RepRecv() (watermark uint64, err error) {
	resp, err := c.recv(OpRep)
	if err != nil {
		return 0, err
	}
	return resp.Seq, nil
}

// AckReport tells the peer that origin's log is durable through seq on this
// sender (seeds a freshly promoted primary's quorum tracker).
func (c *Client) AckReport(origin uint32, seq uint64) error {
	_, err := c.roundTrip(Request{Op: OpAck, Origin: origin, Seq: seq})
	return err
}

// Topo fetches the node's current view of the cluster topology.
func (c *Client) Topo() (Topology, error) {
	resp, err := c.roundTrip(Request{Op: OpTopo})
	if err != nil {
		return Topology{}, err
	}
	return resp.Topo, nil
}
