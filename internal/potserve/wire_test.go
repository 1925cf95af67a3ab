package potserve

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"potgo/internal/objstore"
	"potgo/internal/pds"
)

// decodeRequest decodes body into a fresh Request in canonical form:
// absent TX ops and REP entries are nil slices, as encoders write them.
func decodeRequest(body []byte) (Request, error) {
	var req Request
	err := DecodeRequestInto(body, &req)
	if len(req.Ops) == 0 {
		req.Ops = nil
	}
	if len(req.Entries) == 0 {
		req.Entries = nil
	}
	return req, err
}

// overLimitTx is a TX body of MaxTxOps+1 puts: it fits under MaxFrame, so
// only the op-count limit can refuse it.
func overLimitTx() []byte {
	n := MaxTxOps + 1
	body := binary.BigEndian.AppendUint16([]byte{OpTx}, uint16(n))
	return append(body, make([]byte, n*17)...)
}

// TestRequestRoundTrip pins encode->decode identity for every opcode.
func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpGet, Key: 42},
		{Op: OpPut, Key: 1, Val: 0xdeadbeef},
		{Op: OpDel, Key: ^uint64(0)},
		{Op: OpScan, From: 7, Max: 100},
		{Op: OpScan, From: 0, Max: 0},
		{Op: OpTx, Ops: []objstore.BatchOp{
			{Key: 1, Val: 10},
			{Key: 2, Del: true, Val: 0},
			{Key: 3, Val: 30},
		}},
		{Op: OpTx},
		{Op: OpPing},
	}
	for _, want := range cases {
		body, err := AppendRequest(nil, want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := decodeRequest(body)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

// TestResponseRoundTrip pins encode->decode identity per (op, status).
func TestResponseRoundTrip(t *testing.T) {
	cases := []struct {
		op   byte
		resp Response
	}{
		{OpGet, Response{Status: StatusOK, Val: 99}},
		{OpGet, Response{Status: StatusNotFound}},
		{OpPut, Response{Status: StatusOK, Created: true}},
		{OpPut, Response{Status: StatusOK, Created: false}},
		{OpDel, Response{Status: StatusOK}},
		{OpDel, Response{Status: StatusNotFound}},
		{OpScan, Response{Status: StatusOK, KVs: []pds.KV{{Key: 1, Val: 2}, {Key: 3, Val: 4}}}},
		{OpScan, Response{Status: StatusOK}},
		{OpTx, Response{Status: StatusOK}},
		{OpPing, Response{Status: StatusOK}},
		{OpGet, Response{Status: StatusErr, Msg: "pool exhausted"}},
	}
	for _, tc := range cases {
		body, err := AppendResponse(nil, tc.op, tc.resp)
		if err != nil {
			t.Fatalf("encode op %d %+v: %v", tc.op, tc.resp, err)
		}
		got, err := DecodeResponse(tc.op, body)
		if err != nil {
			t.Fatalf("decode op %d %+v: %v", tc.op, tc.resp, err)
		}
		if !reflect.DeepEqual(got, tc.resp) {
			t.Fatalf("round trip op %d: got %+v, want %+v", tc.op, got, tc.resp)
		}
	}
}

// TestDecodeRequestRejectsMalformed enumerates the malformed shapes the
// fuzz target hunts for, as fixed regressions.
func TestDecodeRequestRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":             {},
		"unknown op":        {0xff},
		"op zero":           {0},
		"truncated get key": {OpGet, 1, 2, 3},
		"get trailing":      append([]byte{OpGet}, make([]byte, 9)...),
		"truncated put":     append([]byte{OpPut}, make([]byte, 15)...),
		"truncated scan":    append([]byte{OpScan}, make([]byte, 10)...),
		"scan max too big":  {OpScan, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},
		"tx count short":    {OpTx, 0, 2, TxPut, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2},
		"tx count long":     append([]byte{OpTx, 0, 1}, make([]byte, 34)...),
		"tx bad kind":       append([]byte{OpTx, 0, 1, 7}, make([]byte, 16)...),
		"ping trailing":     {OpPing, 0},
		"tx over MaxTxOps":  overLimitTx(),
	}
	for name, body := range cases {
		if _, err := decodeRequest(body); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestDecodeResponseRejectsMalformed mirrors the request-side checks.
func TestDecodeResponseRejectsMalformed(t *testing.T) {
	cases := map[string]struct {
		op   byte
		body []byte
	}{
		"empty":               {OpGet, []byte{}},
		"unknown status":      {OpGet, []byte{9}},
		"truncated get val":   {OpGet, []byte{StatusOK, 1, 2}},
		"put missing created": {OpPut, []byte{StatusOK}},
		"scan count mismatch": {OpScan, []byte{StatusOK, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1}},
		"ping trailing":       {OpPing, []byte{StatusOK, 0}},
	}
	for name, tc := range cases {
		if _, err := DecodeResponse(tc.op, tc.body); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestFrameIO pins the length-prefix framing and the MaxFrame guard.
func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{{}, {1}, bytes.Repeat([]byte{0xab}, 1000)}
	for _, b := range bodies {
		buf.Write(binary.BigEndian.AppendUint32(nil, uint32(len(b))))
		buf.Write(b)
	}
	for _, want := range bodies {
		got, err := ReadFrameInto(&buf, nil)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: got %d bytes, want %d", len(got), len(want))
		}
	}

	// An oversized length prefix must be refused before allocation.
	oversize := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrameInto(bytes.NewReader(oversize), nil); err == nil {
		t.Fatal("oversized frame accepted")
	}

	// A truncated body must error, not block forever or return short.
	trunc := []byte{0, 0, 0, 10, 1, 2, 3}
	if _, err := ReadFrameInto(bytes.NewReader(trunc), nil); err == nil {
		t.Fatal("truncated frame accepted")
	}
}
