// Package oid defines the 64-bit persistent ObjectID used throughout the
// system.
//
// Following Figure 1 of the paper, an ObjectID is the concatenation of a
// 32-bit pool identifier (upper bits) and a 32-bit byte offset within the
// pool (lower bits). Pool id 0 is reserved for the NULL ObjectID, so a pool
// can never be assigned id 0 and the zero value of OID is the null reference.
//
// The space of all ObjectIDs can be read two ways: as a segmented address
// space where every pool is a 4 GB segment, or as a single flat 64-bit
// persistent address space. Either way, an object in one pool may hold a
// legitimate ObjectID that refers into any other pool.
package oid

import "fmt"

// PoolID is a unique, system-wide identifier assigned to a pool when it is
// created. The zero PoolID is reserved and never assigned.
type PoolID uint32

// NullPool is the reserved pool identifier that cannot name a real pool.
const NullPool PoolID = 0

// OID is a persistent object identifier: pool id (upper 32 bits) and byte
// offset within the pool (lower 32 bits).
type OID uint64

// Null is the null ObjectID (pool 0, offset 0). The zero value of OID.
const Null OID = 0

// Bit-layout constants for the two ObjectID components.
const (
	// OffsetBits is the width of the offset field (so each pool is a
	// 4 GB segment).
	OffsetBits = 32
	// PoolBits is the width of the pool-id field.
	PoolBits = 32
)

// New builds an ObjectID from a pool identifier and an offset.
func New(pool PoolID, offset uint32) OID {
	return OID(uint64(pool)<<OffsetBits | uint64(offset))
}

// Pool returns the pool-identifier component of the ObjectID.
func (o OID) Pool() PoolID { return PoolID(o >> OffsetBits) }

// Offset returns the byte offset of the ObjectID within its pool.
func (o OID) Offset() uint32 { return uint32(o) }

// IsNull reports whether the ObjectID is the null reference. Any ObjectID
// whose pool component is the reserved pool 0 is null, regardless of offset,
// matching the paper's reservation of pool id 0 for "a NULL pool which
// cannot exist".
func (o OID) IsNull() bool { return o.Pool() == NullPool }

// Add returns the ObjectID displaced by delta bytes within the same pool.
// This is the ObjectID analogue of pointer arithmetic (the imm field of the
// nvld/nvst instructions). Offset arithmetic wraps within the 32-bit offset
// space; it never changes the pool component.
//
//potlint:allow unusedexport kept for TestAdd and TestQuickAddAdditive
func (o OID) Add(delta int64) OID {
	return New(o.Pool(), uint32(int64(o.Offset())+delta))
}

// FieldAt is a readability helper for struct-style access: the ObjectID of a
// field located fieldOff bytes past the start of the object.
func (o OID) FieldAt(fieldOff uint32) OID {
	return New(o.Pool(), o.Offset()+fieldOff)
}

// String renders the ObjectID as pool:offset in hex, or "NULL".
func (o OID) String() string {
	if o.IsNull() {
		return "NULL"
	}
	return fmt.Sprintf("%d:0x%x", o.Pool(), o.Offset())
}

// PageShift is log2 of the 4 KB page size assumed by the Parallel POLB
// design, which tags entries by pool id plus page-within-pool.
const PageShift = 12

// PageTag returns the upper 52 bits of the ObjectID — the tag used by the
// Parallel POLB design (pool id concatenated with the page number within the
// pool; the low 12 bits index into the page and flow directly to a
// virtually-indexed cache).
func (o OID) PageTag() uint64 { return uint64(o) >> PageShift }

// PageOffset returns the low 12 bits: the byte offset within the 4 KB page.
func (o OID) PageOffset() uint64 { return uint64(o) & (1<<PageShift - 1) }
