package pmem

import (
	"sync"
	"testing"

	"potgo/internal/isa"
	"potgo/internal/oid"
)

// shardedFTPool creates a fault-tolerant pool on a sharded heap and fills
// it with n committed objects.
func shardedFTPool(t *testing.T, s *Sharded, name string, n int) (*Pool, []oid.OID) {
	t.Helper()
	p, err := s.CreateSizedFT(name, 1<<20, DefaultLogBytes)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]oid.OID, n)
	for i := range objs {
		err := shardedTx(s, p, nil, func(tx *Tx) error {
			o, err := tx.Alloc(p, 256)
			if err != nil {
				return err
			}
			ref, err := s.h.Deref(o, isa.RZ)
			if err != nil {
				return err
			}
			for off := uint32(0); off < 256; off += 8 {
				if err := ref.Store64(off, uint64(i)<<16|uint64(off), isa.RZ); err != nil {
					return err
				}
			}
			objs[i] = o
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return p, objs
}

// TestScrubberStructuralInterleave races synchronous scrubs and
// stop-the-world structural operations against foreground transactions;
// run under -race it checks that scrubbing takes each pool's shard lock.
func TestScrubberStructuralInterleave(t *testing.T) {
	s := newTestSharded(t, 4)
	p, objs := shardedFTPool(t, s, "ft", 16)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			o := objs[i%len(objs)]
			err := shardedTx(s, p, nil, func(tx *Tx) error {
				if err := tx.AddRange(o, 8); err != nil {
					return err
				}
				ref, err := s.h.Deref(o, isa.RZ)
				if err != nil {
					return err
				}
				return ref.Store64(0, uint64(i), isa.RZ)
			})
			if err != nil {
				t.Errorf("tx: %v", err)
				return
			}
		}
	}()

	// Structural churn: creates, closes and syncs, each under the
	// all-shard lock, and synchronous scrubs, one shard lock at a time.
	for i := 0; i < 20; i++ {
		q, err := s.CreateSizedFT("churn", 1<<18, DefaultLogBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SyncAll(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ScrubAll(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(q); err != nil {
			t.Fatal(err)
		}
		if err := s.Heap().Store.Delete("churn"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
