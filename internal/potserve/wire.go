// Package potserve puts a network front-end on the concurrent persistent
// object store (internal/objstore): a length-prefixed binary protocol over
// TCP, a server that multiplexes client connections onto the sharded heap,
// and a client. Requests on one connection are pipelined: a client may send
// any number of frames before reading responses; the server executes them
// in order and answers in order.
//
// Wire format (all integers big-endian):
//
//	frame    := u32 length, then `length` body bytes (length <= MaxFrame)
//	request  := u8 op, op-specific payload
//	  GET  (1): u64 key
//	  PUT  (2): u64 key, u64 val
//	  DEL  (3): u64 key
//	  SCAN (4): u64 from, u32 max        (max <= MaxScan)
//	  TX   (5): u16 n, then n x (u8 kind, u64 key, u64 val); kind 0 = put,
//	            1 = delete (val ignored)
//	  PING (6): empty
//	  SUB  (7): u32 origin, u64 fromSeq   (replication catch-up: send me
//	            origin's applied log entries with seq > fromSeq)
//	  REP  (8): u32 origin, u64 senderEpoch, u16 n, then n x entry
//	            entry := u64 seq, u64 epoch, u8 kind, u64 key, u64 val
//	            (primary -> follower log append; kind as TX)
//	  ACK  (9): u32 origin, u64 seq        (durable-watermark report)
//	  TOPO (10): empty                     (topology refresh request)
//	response := u8 status, status/op-specific payload
//	  StatusOK       (0): GET -> u64 val; PUT -> u8 created; DEL -> empty;
//	                      SCAN -> u32 n, then n x (u64 key, u64 val);
//	                      TX, PING, ACK -> empty;
//	                      SUB -> u16 n, then n x entry (shape as REP);
//	                      REP -> u64 watermark (origin's applied watermark
//	                             after the append — the replication ack);
//	                      TOPO -> u64 epoch, u16 n, then n x (u32 id,
//	                              u8 alive, u16 len, len addr bytes)
//	  StatusNotFound (1): empty (GET of an absent key, DEL of an absent key)
//	  StatusErr      (2): UTF-8 error message
//	  StatusCorrupt  (3): empty (the read tripped a checksum and the object
//	                      could not be repaired from parity; the connection
//	                      stays usable — only that datum is bad)
//	  StatusNotOwner (4): empty (cluster mode: this node does not own the
//	                      requested key at its current topology epoch; the
//	                      client refreshes the topology and re-routes)
//
// Decoding is total: any byte string either decodes or returns an error;
// malformed input (truncated payloads, trailing junk, oversized counts,
// unknown opcodes) must never panic. FuzzDecodeRequest enforces this.
package potserve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"potgo/internal/objstore"
	"potgo/internal/pds"
)

// Request opcodes.
const (
	OpGet  byte = 1
	OpPut  byte = 2
	OpDel  byte = 3
	OpScan byte = 4
	OpTx   byte = 5
	OpPing byte = 6
	OpSub  byte = 7  // replication catch-up: stream an origin's log suffix
	OpRep  byte = 8  // replication append: primary -> follower log entries
	OpAck  byte = 9  // durable-watermark report
	OpTopo byte = 10 // topology refresh

	opMax = OpTopo // highest opcode; sizes per-op metric tables
)

// Response status codes.
const (
	StatusOK       byte = 0
	StatusNotFound byte = 1
	StatusErr      byte = 2
	StatusCorrupt  byte = 3
	StatusNotOwner byte = 4
)

// ErrCorrupt is what a client method returns for a StatusCorrupt
// response: the server detected unrepairable media corruption under the
// requested datum. The connection is healthy and the response stream in
// sync; retrying the same request cannot help.
var ErrCorrupt = errors.New("potserve: server reported unrepairable corruption")

// ErrNotOwner is what a client method returns for a StatusNotOwner
// response: the contacted node does not own the requested key at its
// current topology epoch. The cluster routing client treats it as a
// signal to refresh the topology and re-route; it is never a data error.
var ErrNotOwner = errors.New("potserve: node does not own key")

// TX entry kinds.
const (
	TxPut byte = 0
	TxDel byte = 1
)

const (
	// MaxFrame bounds a frame body; a length prefix above it is a protocol
	// error, so a corrupt or hostile peer cannot make the server allocate
	// unbounded memory.
	MaxFrame = 1 << 20
	// MaxScan bounds one SCAN response; it keeps the largest legal response
	// frame ((16 bytes per pair) * MaxScan + header) under MaxFrame.
	MaxScan = 60000
	// MaxTxOps bounds one TX batch (17 bytes per op keeps the request frame
	// under MaxFrame).
	MaxTxOps = 60000
	// MaxRepEntries bounds one REP append or SUB response (33 bytes per
	// entry keeps the frame under MaxFrame).
	MaxRepEntries = 30000
	// MaxTopoNodes bounds one TOPO response; with MaxAddr-long addresses the
	// frame stays well under MaxFrame.
	MaxTopoNodes = 1024
	// MaxAddr bounds one node address string in a TOPO response.
	MaxAddr = 256
)

// ErrFrameTooBig reports a length prefix above MaxFrame.
var ErrFrameTooBig = errors.New("potserve: frame exceeds MaxFrame")

// RepEntry is one replicated-log record: an acknowledged write coordinated
// by some origin node. Seq numbers the origin's log from 1 with no gaps;
// Epoch is the topology epoch at which the origin coordinated the write.
type RepEntry struct {
	Seq   uint64
	Epoch uint64
	Key   uint64
	Val   uint64
	Del   bool
}

// TopoNode is one cluster member in a TOPO response.
type TopoNode struct {
	ID    uint32
	Alive bool
	Addr  string
}

// Topology is a TOPO response payload: the epoch-stamped member list a
// routing client rebuilds its hash ring from.
type Topology struct {
	Epoch uint64
	Nodes []TopoNode
}

// Request is one decoded client request. Only the fields of the active Op
// are meaningful.
type Request struct {
	Op      byte
	Key     uint64
	Val     uint64
	From    uint64             // SCAN
	Max     uint32             // SCAN
	Ops     []objstore.BatchOp // TX
	Origin  uint32             // SUB, REP, ACK
	Seq     uint64             // SUB (fromSeq), ACK (watermark)
	Epoch   uint64             // REP (sender's topology epoch)
	Entries []RepEntry         // REP
}

// Response is one decoded server response. Only the fields of the
// originating op are meaningful.
type Response struct {
	Status  byte
	Val     uint64     // GET
	Created bool       // PUT
	KVs     []pds.KV   // SCAN
	Msg     string     // StatusErr
	Seq     uint64     // REP (applied watermark — the replication ack)
	Entries []RepEntry // SUB
	Topo    Topology   // TOPO
}

// ReadFrameInto reads one length-prefixed frame body from r into buf's
// backing array when it fits, allocating only when the frame outgrows every
// previous one on the connection. The returned slice aliases buf; it is
// valid until the next ReadFrameInto with the same buffer.
//
//potlint:noalloc
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	// The length prefix is read through buf as well: a stack [4]byte would
	// escape into the io.ReadFull interface call and cost one heap
	// allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4, 512) //potlint:allow noalloc first frame on a connection seeds the reusable buffer
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("%w (%d bytes)", ErrFrameTooBig, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n) //potlint:allow noalloc amortized regrowth when a frame outgrows every previous one
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("potserve: truncated frame: %w", err)
	}
	return buf, nil
}

// AppendRequestFrame appends req as one complete frame — length prefix and
// body — to dst. Batching frames into one buffer and writing it with a
// single conn.Write sends a pipeline in one system call, and allocates
// nothing once dst has capacity.
//
//potlint:noalloc
func AppendRequestFrame(dst []byte, req Request) ([]byte, error) {
	hdr := len(dst)
	dst = append(dst, 0, 0, 0, 0) //potlint:allow noalloc amortized growth of the caller-owned batch buffer
	out, err := appendRequest(dst, req)
	if err != nil {
		return dst[:hdr], err
	}
	n := len(out) - hdr - 4
	if n > MaxFrame {
		return out[:hdr], fmt.Errorf("%w (%d bytes)", ErrFrameTooBig, n)
	}
	binary.BigEndian.PutUint32(out[hdr:], uint32(n))
	return out, nil
}

// AppendResponseFrame is AppendRequestFrame for responses.
//
//potlint:noalloc
func AppendResponseFrame(dst []byte, op byte, resp Response) ([]byte, error) {
	hdr := len(dst)
	dst = append(dst, 0, 0, 0, 0) //potlint:allow noalloc amortized growth of the caller-owned batch buffer
	out, err := appendResponse(dst, op, resp)
	if err != nil {
		return dst[:hdr], err
	}
	n := len(out) - hdr - 4
	if n > MaxFrame {
		return out[:hdr], fmt.Errorf("%w (%d bytes)", ErrFrameTooBig, n)
	}
	binary.BigEndian.PutUint32(out[hdr:], uint32(n))
	return out, nil
}

// reader consumes big-endian fields from a frame body, tracking one
// malformed-input error instead of panicking.
type reader struct {
	buf []byte
	err error
}

//potlint:noalloc
func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("potserve: malformed frame: %s", what)
	}
}

//potlint:noalloc
func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 1 {
		r.fail("truncated u8")
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

//potlint:noalloc
func (r *reader) u16() uint16 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 2 {
		r.fail("truncated u16")
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf)
	r.buf = r.buf[2:]
	return v
}

//potlint:noalloc
func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 4 {
		r.fail("truncated u32")
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

//potlint:noalloc
func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail("truncated u64")
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// done errors on trailing bytes, so every request has exactly one encoding.
//
//potlint:noalloc
func (r *reader) done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.fail(fmt.Sprintf("%d trailing bytes", len(r.buf))) //potlint:allow noalloc cold malformed-input path
	}
	return r.err
}

// appendRequest appends req's wire encoding (frame body only) to dst.
//
//potlint:noalloc
func appendRequest(dst []byte, req Request) ([]byte, error) {
	dst = append(dst, req.Op) //potlint:allow noalloc amortized growth of the caller-owned buffer
	switch req.Op {
	case OpGet, OpDel:
		dst = binary.BigEndian.AppendUint64(dst, req.Key)
	case OpPut:
		dst = binary.BigEndian.AppendUint64(dst, req.Key)
		dst = binary.BigEndian.AppendUint64(dst, req.Val)
	case OpScan:
		if req.Max > MaxScan {
			return nil, fmt.Errorf("potserve: scan max %d exceeds %d", req.Max, MaxScan)
		}
		dst = binary.BigEndian.AppendUint64(dst, req.From)
		dst = binary.BigEndian.AppendUint32(dst, req.Max)
	case OpTx:
		if len(req.Ops) > MaxTxOps {
			return nil, fmt.Errorf("potserve: tx batch %d exceeds %d ops", len(req.Ops), MaxTxOps)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(req.Ops)))
		for _, op := range req.Ops {
			kind := TxPut
			if op.Del {
				kind = TxDel
			}
			dst = append(dst, kind) //potlint:allow noalloc amortized growth of the caller-owned buffer
			dst = binary.BigEndian.AppendUint64(dst, op.Key)
			dst = binary.BigEndian.AppendUint64(dst, op.Val)
		}
	case OpPing, OpTopo:
	case OpSub:
		dst = binary.BigEndian.AppendUint32(dst, req.Origin)
		dst = binary.BigEndian.AppendUint64(dst, req.Seq)
	case OpRep:
		if len(req.Entries) > MaxRepEntries {
			return nil, fmt.Errorf("potserve: rep batch %d exceeds %d entries", len(req.Entries), MaxRepEntries)
		}
		dst = binary.BigEndian.AppendUint32(dst, req.Origin)
		dst = binary.BigEndian.AppendUint64(dst, req.Epoch)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(req.Entries)))
		dst = appendEntries(dst, req.Entries)
	case OpAck:
		dst = binary.BigEndian.AppendUint32(dst, req.Origin)
		dst = binary.BigEndian.AppendUint64(dst, req.Seq)
	default:
		return nil, fmt.Errorf("potserve: unknown request op %d", req.Op)
	}
	return dst, nil
}

// appendEntries appends the 33-byte wire form of each log entry.
//
//potlint:noalloc
func appendEntries(dst []byte, entries []RepEntry) []byte {
	for _, e := range entries {
		dst = binary.BigEndian.AppendUint64(dst, e.Seq)
		dst = binary.BigEndian.AppendUint64(dst, e.Epoch)
		kind := TxPut
		if e.Del {
			kind = TxDel
		}
		dst = append(dst, kind) //potlint:allow noalloc amortized growth of the caller-owned buffer
		dst = binary.BigEndian.AppendUint64(dst, e.Key)
		dst = binary.BigEndian.AppendUint64(dst, e.Val)
	}
	return dst
}

// decodeEntries decodes n 33-byte log entries into the scratch slice. The
// caller has already verified the remaining payload length.
//
//potlint:noalloc
func decodeEntries(r *reader, scratch []RepEntry, n int) []RepEntry {
	if cap(scratch) < n {
		scratch = make([]RepEntry, 0, n) //potlint:allow noalloc scratch grows once to the largest batch seen
	}
	for i := 0; i < n; i++ {
		seq := r.u64()
		epoch := r.u64()
		kind := r.u8()
		if r.err == nil && kind != TxPut && kind != TxDel {
			r.fail(fmt.Sprintf("rep entry %d: unknown kind %d", i, kind)) //potlint:allow noalloc cold malformed-input path
		}
		//potlint:allow noalloc appends within the capacity checked above
		scratch = append(scratch, RepEntry{
			Seq:   seq,
			Epoch: epoch,
			Key:   r.u64(),
			Val:   r.u64(),
			Del:   kind == TxDel,
		})
	}
	return scratch
}

// DecodeRequestInto decodes one request frame body into req, reusing its
// Ops and Entries capacity as scratch. It never panics: malformed input
// returns an error. A connection loop decoding into the same Request
// allocates nothing once the scratch has grown to the largest batch seen.
// On return req.Ops always carries the scratch (possibly length 0); on
// error the other fields are zeroed.
//
//potlint:noalloc
func DecodeRequestInto(body []byte, req *Request) error {
	ops := req.Ops[:0]
	ents := req.Entries[:0]
	*req = Request{Ops: ops, Entries: ents}
	r := reader{buf: body}
	req.Op = r.u8()
	switch req.Op {
	case OpGet, OpDel:
		req.Key = r.u64()
	case OpPut:
		req.Key = r.u64()
		req.Val = r.u64()
	case OpScan:
		req.From = r.u64()
		req.Max = r.u32()
		if r.err == nil && req.Max > MaxScan {
			r.fail(fmt.Sprintf("scan max %d exceeds %d", req.Max, MaxScan)) //potlint:allow noalloc cold malformed-input path
		}
	case OpTx:
		n := int(r.u16())
		// A TX entry is 17 bytes; reject counts over the batch limit or
		// the remaining bytes cannot hold before allocating.
		if r.err == nil && (n > MaxTxOps || len(r.buf) != n*17) {
			r.fail(fmt.Sprintf("tx count %d exceeds %d or does not match %d payload bytes", n, MaxTxOps, len(r.buf))) //potlint:allow noalloc cold malformed-input path
		}
		if r.err == nil && n > 0 {
			if cap(ops) < n {
				ops = make([]objstore.BatchOp, 0, n) //potlint:allow noalloc scratch grows once to the largest batch seen
			}
			for i := 0; i < n; i++ {
				kind := r.u8()
				if r.err == nil && kind != TxPut && kind != TxDel {
					r.fail(fmt.Sprintf("tx entry %d: unknown kind %d", i, kind)) //potlint:allow noalloc cold malformed-input path
				}
				//potlint:allow noalloc appends within the capacity checked above
				ops = append(ops, objstore.BatchOp{
					Key: r.u64(),
					Val: r.u64(),
					Del: kind == TxDel,
				})
			}
			req.Ops = ops
		}
	case OpPing, OpTopo:
	case OpSub, OpAck:
		req.Origin = r.u32()
		req.Seq = r.u64()
	case OpRep:
		req.Origin = r.u32()
		req.Epoch = r.u64()
		n := int(r.u16())
		// A REP entry is 33 bytes; reject counts the remaining bytes cannot
		// hold before allocating.
		if r.err == nil && (n > MaxRepEntries || len(r.buf) != n*33) {
			r.fail(fmt.Sprintf("rep count %d does not match %d payload bytes", n, len(r.buf))) //potlint:allow noalloc cold malformed-input path
		}
		if r.err == nil && n > 0 {
			req.Entries = decodeEntries(&r, ents, n)
		}
	default:
		r.fail(fmt.Sprintf("unknown request op %d", req.Op)) //potlint:allow noalloc cold malformed-input path
	}
	if err := r.done(); err != nil {
		*req = Request{Ops: ops[:0], Entries: ents[:0]}
		return err
	}
	return nil
}

// appendResponse appends resp's wire encoding (frame body only) to dst. The
// originating op selects the payload shape, mirroring DecodeResponseInto.
//
//potlint:noalloc
func appendResponse(dst []byte, op byte, resp Response) ([]byte, error) {
	dst = append(dst, resp.Status) //potlint:allow noalloc amortized growth of the caller-owned buffer
	if resp.Status == StatusErr {
		return append(dst, resp.Msg...), nil //potlint:allow noalloc error responses are the cold path
	}
	if resp.Status != StatusOK {
		return dst, nil
	}
	switch op {
	case OpGet:
		dst = binary.BigEndian.AppendUint64(dst, resp.Val)
	case OpPut:
		created := byte(0)
		if resp.Created {
			created = 1
		}
		dst = append(dst, created) //potlint:allow noalloc amortized growth of the caller-owned buffer
	case OpScan:
		if len(resp.KVs) > MaxScan {
			return nil, fmt.Errorf("potserve: scan result %d exceeds %d", len(resp.KVs), MaxScan)
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(resp.KVs)))
		for _, kv := range resp.KVs {
			dst = binary.BigEndian.AppendUint64(dst, kv.Key)
			dst = binary.BigEndian.AppendUint64(dst, kv.Val)
		}
	case OpDel, OpTx, OpPing, OpAck:
	case OpSub:
		if len(resp.Entries) > MaxRepEntries {
			return nil, fmt.Errorf("potserve: sub result %d exceeds %d entries", len(resp.Entries), MaxRepEntries)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(resp.Entries)))
		dst = appendEntries(dst, resp.Entries)
	case OpRep:
		dst = binary.BigEndian.AppendUint64(dst, resp.Seq)
	case OpTopo:
		if len(resp.Topo.Nodes) > MaxTopoNodes {
			return nil, fmt.Errorf("potserve: topology %d exceeds %d nodes", len(resp.Topo.Nodes), MaxTopoNodes)
		}
		dst = binary.BigEndian.AppendUint64(dst, resp.Topo.Epoch)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(resp.Topo.Nodes)))
		for _, tn := range resp.Topo.Nodes {
			if len(tn.Addr) > MaxAddr {
				return nil, fmt.Errorf("potserve: node %d address exceeds %d bytes", tn.ID, MaxAddr)
			}
			dst = binary.BigEndian.AppendUint32(dst, tn.ID)
			alive := byte(0)
			if tn.Alive {
				alive = 1
			}
			dst = append(dst, alive) //potlint:allow noalloc topology responses are the cold control path
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(tn.Addr)))
			dst = append(dst, tn.Addr...) //potlint:allow noalloc topology responses are the cold control path
		}
	default:
		return nil, fmt.Errorf("potserve: unknown response op %d", op)
	}
	return dst, nil
}

// DecodeResponseInto decodes one response frame body for a request of the
// given op into resp, reusing its KVs and Entries capacity as scratch. It
// never panics on malformed input. On return resp.KVs and resp.Entries
// always carry the scratch (possibly length 0); the decoded pairs and
// entries are invalidated by the next call with the same Response.
//
//potlint:noalloc
func DecodeResponseInto(op byte, body []byte, resp *Response) error {
	kvs := resp.KVs[:0]
	ents := resp.Entries[:0]
	*resp = Response{KVs: kvs, Entries: ents}
	r := reader{buf: body}
	resp.Status = r.u8()
	switch {
	case r.err != nil:
	case resp.Status == StatusErr:
		resp.Msg = string(r.buf) //potlint:allow noalloc error responses materialize their message on the cold path
		r.buf = nil
	case resp.Status == StatusNotFound, resp.Status == StatusCorrupt, resp.Status == StatusNotOwner:
	case resp.Status != StatusOK:
		r.fail(fmt.Sprintf("unknown status %d", resp.Status)) //potlint:allow noalloc cold malformed-input path
	default:
		switch op {
		case OpGet:
			resp.Val = r.u64()
		case OpPut:
			created := r.u8()
			if r.err == nil && created > 1 {
				r.fail(fmt.Sprintf("created byte %d not 0 or 1", created)) //potlint:allow noalloc cold malformed-input path
			}
			resp.Created = created == 1
		case OpScan:
			n := int(r.u32())
			if r.err == nil && (n > MaxScan || len(r.buf) != n*16) {
				r.fail(fmt.Sprintf("scan count %d does not match %d payload bytes", n, len(r.buf))) //potlint:allow noalloc cold malformed-input path
			}
			if r.err == nil && n > 0 {
				if cap(kvs) < n {
					kvs = make([]pds.KV, 0, n) //potlint:allow noalloc scratch grows once to the largest scan seen
				}
				for i := 0; i < n; i++ {
					kvs = append(kvs, pds.KV{Key: r.u64(), Val: r.u64()}) //potlint:allow noalloc appends within the capacity checked above
				}
				resp.KVs = kvs
			}
		case OpDel, OpTx, OpPing, OpAck:
		case OpSub:
			n := int(r.u16())
			if r.err == nil && (n > MaxRepEntries || len(r.buf) != n*33) {
				r.fail(fmt.Sprintf("sub count %d does not match %d payload bytes", n, len(r.buf))) //potlint:allow noalloc cold malformed-input path
			}
			if r.err == nil && n > 0 {
				resp.Entries = decodeEntries(&r, ents, n)
			}
		case OpRep:
			resp.Seq = r.u64()
		case OpTopo:
			resp.Topo.Epoch = r.u64()
			n := int(r.u16())
			if r.err == nil && n > MaxTopoNodes {
				r.fail(fmt.Sprintf("topology count %d exceeds %d", n, MaxTopoNodes)) //potlint:allow noalloc cold malformed-input path
			}
			if r.err == nil && n > 0 {
				nodes := make([]TopoNode, 0, n) //potlint:allow noalloc topology responses are the cold control path
				for i := 0; i < n; i++ {
					id := r.u32()
					alive := r.u8()
					if r.err == nil && alive > 1 {
						r.fail(fmt.Sprintf("topology node %d: alive byte %d not 0 or 1", i, alive)) //potlint:allow noalloc cold malformed-input path
					}
					alen := int(r.u16())
					if r.err == nil && (alen > MaxAddr || len(r.buf) < alen) {
						r.fail(fmt.Sprintf("topology node %d: bad address length %d", i, alen)) //potlint:allow noalloc cold malformed-input path
					}
					if r.err != nil {
						break
					}
					addr := string(r.buf[:alen]) //potlint:allow noalloc topology responses are the cold control path
					r.buf = r.buf[alen:]
					nodes = append(nodes, TopoNode{ID: id, Alive: alive == 1, Addr: addr}) //potlint:allow noalloc topology responses are the cold control path
				}
				if r.err == nil {
					resp.Topo.Nodes = nodes
				}
			}
		default:
			r.fail(fmt.Sprintf("unknown response op %d", op)) //potlint:allow noalloc cold malformed-input path
		}
	}
	if err := r.done(); err != nil {
		*resp = Response{KVs: kvs[:0], Entries: ents[:0]}
		return err
	}
	return nil
}
