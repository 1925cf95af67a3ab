package pds

import (
	"sort"
	"testing"
	"testing/quick"
)

// Property (quick): any operation sequence leaves the B+ tree consistent
// with a reference map — insert/update/remove/find driven by generated
// bytes, invariants checked at the end.
func TestQuickBPlusMatchesMap(t *testing.T) {
	f := func(script []byte) bool {
		c, cell := newCtx(t, 1)
		bp := NewBPlus(cell)
		ref := map[uint64]uint64{}
		for i, b := range script {
			key := uint64(b % 64)
			switch i % 3 {
			case 0: // upsert
				val := uint64(i)
				if _, ok := ref[key]; ok {
					if ok2, err := bp.Update(c, key, val); err != nil || !ok2 {
						return false
					}
				} else if err := bp.Insert(c, key, val); err != nil {
					return false
				}
				ref[key] = val
			case 1: // remove
				want := false
				if _, ok := ref[key]; ok {
					want = true
					delete(ref, key)
				}
				got, err := bp.Remove(c, key)
				if err != nil || got != want {
					return false
				}
			case 2: // find
				v, found, err := bp.Find(c, key)
				if err != nil {
					return false
				}
				want, ok := ref[key]
				if found != ok || (ok && v != want) {
					return false
				}
			}
		}
		n, err := bp.CheckInvariants(c)
		return err == nil && n == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property (quick): the B-tree agrees with a reference set and its in-order
// structure stays sorted under arbitrary insert/remove scripts.
func TestQuickBTreeMatchesSet(t *testing.T) {
	f := func(script []byte) bool {
		c, cell := newCtx(t, 1)
		bt := NewBTree(cell)
		ref := map[uint64]bool{}
		for _, b := range script {
			key := uint64(b % 48)
			if ref[key] {
				ok, err := bt.Remove(c, key)
				if err != nil || !ok {
					return false
				}
				delete(ref, key)
			} else {
				if err := bt.Insert(c, key); err != nil {
					return false
				}
				ref[key] = true
			}
		}
		n, err := bt.CheckInvariants(c)
		return err == nil && n == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property (quick): RBT in-order output equals the sorted reference keys
// after any script, and the red-black invariants hold.
func TestQuickRBTSorted(t *testing.T) {
	f := func(script []byte) bool {
		c, cell := newCtx(t, 1)
		rbt := NewRBT(cell)
		ref := map[uint64]bool{}
		for _, b := range script {
			key := uint64(b % 48)
			if ref[key] {
				ok, err := rbt.Remove(c, key)
				if err != nil || !ok {
					return false
				}
				delete(ref, key)
			} else {
				if err := rbt.Insert(c, key); err != nil {
					return false
				}
				ref[key] = true
			}
		}
		if _, err := rbt.CheckInvariants(c); err != nil {
			return false
		}
		got, err := rbt.InOrder(c)
		if err != nil {
			return false
		}
		want := make([]uint64, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
