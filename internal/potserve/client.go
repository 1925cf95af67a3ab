package potserve

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"potgo/internal/pds"
)

// Client is one connection to a potserve server. PipelineAppend sends a
// whole batch of requests before reading any response, exercising the
// server's pipelined execution; Put, Scan and the replication and topology
// calls issue one request and wait for its response. A Client is not safe for
// concurrent use; open one per goroutine (the server handles connections
// concurrently).
//
// Requests accumulate as complete frames in one connection-lifetime buffer
// and go out with a single conn.Write per flush point; the response frame
// buffer and the decoded response are likewise reused, so a steady-state
// round trip allocates nothing on the client either. Scan and Sub decode
// into a response of their own instead: their results outlive the call,
// and no catch-up-sized buffer outlives it on the connection.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	out     []byte   // unsent request frames
	frame   []byte   // response frame scratch
	resp    Response // one-request response scratch (scalar results)
	timeout time.Duration
}

// ServerError is a failure the server reported in a StatusErr response.
// The connection is healthy and the response stream in sync: the
// request was executed (or rejected) exactly once.
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

// roundTrip sends one request and reads its response into resp.
func (c *Client) roundTrip(req Request, resp *Response) error {
	if err := c.arm(); err != nil {
		return err
	}
	if err := c.send(req); err != nil {
		return err
	}
	if err := c.flush(); err != nil {
		return err
	}
	return c.recv(req.Op, resp)
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

// read reads one response frame and decodes it into resp, reusing resp's
// slices as scratch.
func (c *Client) read(op byte, resp *Response) error {
	frame, err := ReadFrameInto(c.br, c.frame)
	if err != nil {
		return err
	}
	c.frame = frame
	return DecodeResponseInto(op, frame, resp)
}

// recv reads one response into resp and turns a failure status into its
// error: StatusErr is a *ServerError, StatusCorrupt ErrCorrupt,
// StatusNotOwner ErrNotOwner.
func (c *Client) recv(op byte, resp *Response) error {
	if err := c.read(op, resp); err != nil {
		return err
	}
	switch resp.Status {
	case StatusErr:
		return &ServerError{Msg: resp.Msg}
	case StatusCorrupt:
		return ErrCorrupt
	case StatusNotOwner:
		return ErrNotOwner
	}
	return nil
}

// PipelineAppend sends every request, flushes once, then reads every
// response in order, appending into resps (truncated and reused, element
// scratch included), so a loop recycling its response slice drives the
// full round trip without allocating. A server-side StatusErr is returned
// in its Response, not as an error, so one failed op does not hide the
// others' results. The returned responses — scan results included — are
// only valid until the next PipelineAppend with the same slice.
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
		// Recycle the slot past the length when the backing array has one,
		// keeping its KVs scratch alive for the decoder.
		if cap(resps) > len(resps) {
			resps = resps[:len(resps)+1]
		} else {
			resps = append(resps, Response{})
		}
		if err := c.read(req.Op, &resps[len(resps)-1]); err != nil {
			return nil, err
		}
	}
	return resps, nil
}

// Put upserts a key; created reports whether it was absent.
func (c *Client) Put(key, val uint64) (created bool, err error) {
	if err := c.roundTrip(Request{Op: OpPut, Key: key, Val: val}, &c.resp); err != nil {
		return false, err
	}
	return c.resp.Created, nil
}

// Scan returns up to max pairs with key >= from, ascending, in a fresh
// slice.
func (c *Client) Scan(from uint64, max int) ([]pds.KV, error) {
	if max < 0 || max > MaxScan {
		return nil, fmt.Errorf("potserve: scan max %d out of range [0, %d]", max, MaxScan)
	}
	var resp Response
	if err := c.roundTrip(Request{Op: OpScan, From: from, Max: uint32(max)}, &resp); err != nil {
		return nil, err
	}
	return resp.KVs, nil
}

// Sub fetches origin's applied log entries with Seq > fromSeq (replication
// catch-up), in a fresh slice.
func (c *Client) Sub(origin uint32, fromSeq uint64) ([]RepEntry, error) {
	var resp Response
	if err := c.roundTrip(Request{Op: OpSub, Origin: origin, Seq: fromSeq}, &resp); err != nil {
		return nil, err
	}
	return resp.Entries, nil
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
	if err := c.recv(OpRep, &c.resp); err != nil {
		return 0, err
	}
	return c.resp.Seq, nil
}

// AckReport tells the peer that origin's log is durable through seq on this
// sender (seeds a freshly promoted primary's quorum tracker).
func (c *Client) AckReport(origin uint32, seq uint64) error {
	return c.roundTrip(Request{Op: OpAck, Origin: origin, Seq: seq}, &c.resp)
}

// Topo fetches the node's current view of the cluster topology.
func (c *Client) Topo() (Topology, error) {
	if err := c.roundTrip(Request{Op: OpTopo}, &c.resp); err != nil {
		return Topology{}, err
	}
	return c.resp.Topo, nil
}
