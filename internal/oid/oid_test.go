package oid

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestNewPackUnpack(t *testing.T) {
	cases := []struct {
		pool PoolID
		off  uint32
	}{
		{1, 0},
		{1, 1},
		{1234, 0x10},
		{0xffffffff, 0xffffffff},
		{42, 4095},
		{42, 4096},
	}
	for _, c := range cases {
		o := New(c.pool, c.off)
		if o.Pool() != c.pool {
			t.Errorf("New(%d,%d).Pool() = %d", c.pool, c.off, o.Pool())
		}
		if o.Offset() != c.off {
			t.Errorf("New(%d,%d).Offset() = %d", c.pool, c.off, o.Offset())
		}
	}
}

func TestNullSemantics(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null must be null")
	}
	if !New(NullPool, 77).IsNull() {
		t.Error("any OID in the reserved pool 0 is null")
	}
	if New(1, 0).IsNull() {
		t.Error("pool 1, offset 0 is a real ObjectID")
	}
	var zero OID
	if !zero.IsNull() {
		t.Error("zero value of OID must be the null reference")
	}
}

func TestAdd(t *testing.T) {
	o := New(7, 100)
	if got := o.Add(28); got != New(7, 128) {
		t.Errorf("Add(28) = %v", got)
	}
	if got := o.Add(-100); got != New(7, 0) {
		t.Errorf("Add(-100) = %v", got)
	}
	// Offset arithmetic must never bleed into the pool field.
	top := New(7, 0xfffffff0)
	if got := top.Add(0x20); got.Pool() != 7 {
		t.Errorf("Add overflow changed pool: %v", got)
	}
}

func TestFieldAt(t *testing.T) {
	o := New(3, 0x1000)
	if got := o.FieldAt(8); got != New(3, 0x1008) {
		t.Errorf("FieldAt(8) = %v", got)
	}
}

// parseOID reads the String form back with the standard scanner.
func parseOID(s string) (OID, error) {
	if s == "NULL" {
		return Null, nil
	}
	var pool, off uint32
	if _, err := fmt.Sscanf(s, "%d:0x%x", &pool, &off); err != nil {
		return Null, err
	}
	return New(PoolID(pool), off), nil
}

func TestStringAndParse(t *testing.T) {
	cases := map[OID]string{
		Null:                        "NULL",
		New(1, 0):                   "1:0x0",
		New(77, 0xdeadbe):           "77:0xdeadbe",
		New(0xffffffff, 0xffffffff): "4294967295:0xffffffff",
	}
	for o, want := range cases {
		s := o.String()
		if s != want {
			t.Errorf("%#x renders %q, want %q", uint64(o), s, want)
		}
		back, err := parseOID(s)
		if err != nil || back != o {
			t.Errorf("round-trip %v -> %q -> %v (%v)", o, s, back, err)
		}
	}
}

func TestPageTag(t *testing.T) {
	o := New(9, 0x3456)
	if got, want := o.PageTag(), uint64(9)<<20|0x3; got != want {
		t.Errorf("PageTag = %#x, want %#x", got, want)
	}
	if got := o.PageOffset(); got != 0x456 {
		t.Errorf("PageOffset = %#x, want 0x456", got)
	}
}

// Property: pack/unpack round-trips for all pool/offset combinations.
func TestQuickRoundTrip(t *testing.T) {
	f := func(pool uint32, off uint32) bool {
		o := New(PoolID(pool), off)
		return o.Pool() == PoolID(pool) && o.Offset() == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add is additive in its displacement and preserves the pool.
func TestQuickAddAdditive(t *testing.T) {
	f := func(pool uint32, off uint32, a, b int16) bool {
		if pool == 0 {
			pool = 1
		}
		o := New(PoolID(pool), off)
		lhs := o.Add(int64(a)).Add(int64(b))
		rhs := o.Add(int64(a) + int64(b))
		return lhs == rhs && lhs.Pool() == PoolID(pool)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PageTag/PageOffset partition the ObjectID bits.
func TestQuickPageSplit(t *testing.T) {
	f := func(v uint64) bool {
		o := OID(v)
		return o.PageTag()<<PageShift|o.PageOffset() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: String/Parse round-trips for non-null OIDs.
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(pool uint32, off uint32) bool {
		if pool == 0 {
			pool = 0x80000000
		}
		o := New(PoolID(pool), off)
		back, err := parseOID(o.String())
		return err == nil && back == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
