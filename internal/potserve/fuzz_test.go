package potserve

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeRequest throws arbitrary bytes at the request decoder. The
// protocol's safety story depends on the decoder being total: truncated
// payloads, oversized counts, junk opcodes and trailing garbage must return
// an error, never panic, and never allocate beyond what the input length
// justifies. When a body does decode, re-encoding it must reproduce the
// exact bytes (the encoding is canonical), and decoding again must yield
// the same request.
func FuzzDecodeRequest(f *testing.F) {
	seedReqs := []Request{
		{Op: OpGet, Key: 1},
		{Op: OpPut, Key: 2, Val: 3},
		{Op: OpDel, Key: 4},
		{Op: OpScan, From: 5, Max: 10},
		{Op: OpTx},
		{Op: OpPing},
		{Op: OpSub, Origin: 2, Seq: 17},
		{Op: OpRep, Origin: 1, Epoch: 3, Entries: []RepEntry{
			{Seq: 8, Epoch: 3, Key: 40, Val: 41},
			{Seq: 9, Epoch: 3, Key: 42, Del: true},
		}},
		{Op: OpAck, Origin: 0, Seq: 99},
		{Op: OpTopo},
	}
	for _, req := range seedReqs {
		body, err := AppendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	// Malformed seeds steer the fuzzer at the interesting edges.
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})
	f.Add([]byte{OpTx, 0xff, 0xff})
	f.Add([]byte{OpScan, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	// Replication frames: truncated headers, bad counts, short entry
	// payloads, bad entry kinds, trailing junk.
	f.Add([]byte{OpSub, 0, 0, 0, 1})                                                            // truncated fromSeq
	f.Add([]byte{OpRep, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2})                                    // truncated count
	f.Add([]byte{OpRep, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0xff, 0xff})                        // count with no payload
	f.Add(append([]byte{OpRep, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1}, make([]byte, 32)...)) // one byte short of an entry
	// entry kind 7 (only 0/1 legal)
	f.Add(func() []byte {
		b := []byte{OpRep, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1}
		e := make([]byte, 33)
		e[16] = 7
		return append(b, e...)
	}())
	f.Add([]byte{OpAck, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0xee}) // trailing junk
	f.Add([]byte{OpTopo, 0})                                       // TOPO carries no payload
	f.Add(overLimitTx())                                           // fits MaxFrame, exceeds MaxTxOps

	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(body)
		if err != nil {
			return // rejection is fine; panicking is the bug being hunted
		}
		enc, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %+v: %v", req, err)
		}
		if !bytes.Equal(enc, body) {
			t.Fatalf("encoding not canonical:\n in  %x\n out %x", body, enc)
		}
		again, err := decodeRequest(enc)
		if err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("re-decode mismatch: %+v vs %+v (err %v)", again, req, err)
		}
	})
}

// FuzzDecodeResponse does the same for the response decoder, fuzzing the
// originating op alongside the body (the op selects the payload shape).
func FuzzDecodeResponse(f *testing.F) {
	f.Add(OpGet, []byte{StatusOK, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Add(OpScan, []byte{StatusOK, 0, 0, 0, 0})
	f.Add(OpPing, []byte{StatusOK})
	f.Add(OpGet, []byte{StatusErr, 'b', 'o', 'o', 'm'})
	f.Add(OpDel, []byte{StatusNotFound})
	f.Add(OpGet, []byte{StatusCorrupt})
	f.Add(OpScan, []byte{StatusCorrupt})
	f.Add(OpGet, []byte{StatusCorrupt, 1}) // corrupt frames carry no payload
	f.Add(byte(0xff), []byte{0xff})
	// Replication responses.
	f.Add(OpGet, []byte{StatusNotOwner})
	f.Add(OpPut, []byte{StatusNotOwner, 1}) // not-owner frames carry no payload
	f.Add(OpRep, []byte{StatusOK, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Add(OpRep, []byte{StatusOK, 0, 0, 0, 0}) // truncated watermark
	f.Add(OpAck, []byte{StatusOK})
	f.Add(OpSub, func() []byte { // one valid entry
		b := []byte{StatusOK, 0, 1}
		e := make([]byte, 33)
		e[7], e[15] = 4, 1 // seq 4, epoch 1
		return append(b, e...)
	}())
	f.Add(OpSub, []byte{StatusOK, 0, 2, 0}) // count 2 with 1 payload byte
	// two-node topology
	f.Add(OpTopo, func() []byte {
		b := []byte{StatusOK, 0, 0, 0, 0, 0, 0, 0, 5, 0, 2}
		b = append(b, 0, 0, 0, 0, 1, 0, 3, 'a', ':', '1')
		b = append(b, 0, 0, 0, 1, 0, 0, 3, 'b', ':', '2')
		return b
	}())
	f.Add(OpTopo, []byte{StatusOK, 0, 0, 0, 0, 0, 0, 0, 5, 0, 1, 0, 0, 0, 0, 1, 0xff, 0xff}) // bad addr length
	f.Add(OpTopo, []byte{StatusOK, 0, 0, 0, 0, 0, 0, 0, 5, 0, 1, 0, 0, 0, 0, 9, 0, 0})       // bad alive byte

	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		resp, err := DecodeResponse(op, body)
		if err != nil {
			return
		}
		enc, err := AppendResponse(nil, op, resp)
		if err != nil {
			t.Fatalf("decoded response does not re-encode: op %d %+v: %v", op, resp, err)
		}
		if !bytes.Equal(enc, body) {
			t.Fatalf("encoding not canonical (op %d):\n in  %x\n out %x", op, body, enc)
		}
	})
}
