package pds

import (
	"fmt"

	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/pmem"
)

// StringArray is the SPS workload's structure (Table 5): an array of N
// fixed-size strings. The array object holds the strings' ObjectIDs; the
// strings themselves are persistent objects placed by the usage pattern,
// and a swap copies the two strings' contents through a temporary.
type StringArray struct {
	table Cell
	n     int
	bytes uint32
}

// StringBytes is the paper's string size: 1024 strings × 32 B = the 32 KB
// string array.
const StringBytes = 32

// NewStringArray wraps an array of n strings of the given size anchored at
// the table cell.
func NewStringArray(table Cell, n int, strBytes uint32) *StringArray {
	return &StringArray{table: table, n: n, bytes: strBytes}
}

// N returns the number of strings.
//
//potlint:allow unusedexport kept for TestStringArraySwap
func (s *StringArray) N() int { return s.n }

// Init allocates the table object and the n strings, filling string i with
// the byte pattern derived from i.
func (s *StringArray) Init(ctx Ctx) error {
	h := ctx.Heap()
	table, err := ctx.Alloc(0, uint32(s.n)*8)
	if err != nil {
		return err
	}
	tref, err := h.Deref(table, isa.RZ)
	if err != nil {
		return err
	}
	for i := 0; i < s.n; i++ {
		str, err := ctx.Alloc(uint64(i), s.bytes)
		if err != nil {
			return err
		}
		sref, err := h.Deref(str, isa.RZ)
		if err != nil {
			return err
		}
		buf := make([]byte, s.bytes)
		for b := range buf {
			buf[b] = byte(i + b)
		}
		if err := sref.WriteBytes(0, buf); err != nil {
			return err
		}
		if err := tref.Store64(uint32(i*8), uint64(str), isa.RZ); err != nil {
			return err
		}
	}
	if err := ctx.Touch(s.table.OID(), 8); err != nil {
		return err
	}
	return s.table.Set(table, pmem.Word{})
}

func (s *StringArray) stringOID(ctx Ctx, i int) (oid.OID, pmem.Word, error) {
	if i < 0 || i >= s.n {
		return oid.Null, pmem.Word{}, fmt.Errorf("pds: string index %d out of range", i)
	}
	h := ctx.Heap()
	tw, err := s.table.Get()
	if err != nil {
		return oid.Null, pmem.Word{}, err
	}
	tref, err := h.Deref(tw.OID(), tw.Reg)
	if err != nil {
		return oid.Null, pmem.Word{}, err
	}
	w, err := tref.Load64(uint32(i * 8))
	if err != nil {
		return oid.Null, pmem.Word{}, err
	}
	return w.OID(), w, nil
}

// Swap exchanges the contents of strings i and j (snapshotting both when a
// transaction is active).
func (s *StringArray) Swap(ctx Ctx, i, j int) error {
	h := ctx.Heap()
	oi, wi, err := s.stringOID(ctx, i)
	if err != nil {
		return err
	}
	oj, wj, err := s.stringOID(ctx, j)
	if err != nil {
		return err
	}
	if err := ctx.Touch(oi, s.bytes); err != nil {
		return err
	}
	if err := ctx.Touch(oj, s.bytes); err != nil {
		return err
	}
	ri, err := h.Deref(oi, wi.Reg)
	if err != nil {
		return err
	}
	rj, err := h.Deref(oj, wj.Reg)
	if err != nil {
		return err
	}
	bi := make([]byte, s.bytes)
	bj := make([]byte, s.bytes)
	if err := ri.ReadBytes(0, bi); err != nil {
		return err
	}
	if err := rj.ReadBytes(0, bj); err != nil {
		return err
	}
	if err := ri.WriteBytes(0, bj); err != nil {
		return err
	}
	return rj.WriteBytes(0, bi)
}

// Get reads string i (verification helper).
func (s *StringArray) Get(ctx Ctx, i int) ([]byte, error) {
	o, w, err := s.stringOID(ctx, i)
	if err != nil {
		return nil, err
	}
	ref, err := ctx.Heap().Deref(o, w.Reg)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, s.bytes)
	if err := ref.ReadBytes(0, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
