package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCloseWhileReplicating closes a cluster while every member is
// replicating bursts, round after round. A burst holds its peer streams'
// locks across the REP round trip and Close walks the same streams, so the
// two must take the stream map's lock and the stream locks in one order;
// with the orders crossed, Close and a burst wait on each other forever.
func TestCloseWhileReplicating(t *testing.T) {
	const rounds, hang = 12, 10 * time.Second
	for round := range rounds {
		cl, err := NewLocal(3, 2, int64(round+1), nil)
		if err != nil {
			t.Fatal(err)
		}
		topo := cl.Topology()
		var stop atomic.Bool
		var bursts atomic.Int64
		var wg sync.WaitGroup
		for _, m := range cl.Members {
			keys := ownedKeys(t, topo, m.Node.ID, 4)
			wg.Add(2)
			for range 2 {
				reqs, resps := putBurst(keys)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						m.Node.ExecBurst(reqs, resps)
						bursts.Add(1)
					}
				}()
			}
		}
		for bursts.Load() < int64(4*(round%4+1)) {
			time.Sleep(100 * time.Microsecond)
		}
		closed := make(chan struct{})
		go func() {
			cl.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(hang):
			t.Fatalf("round %d: Close still waiting after %v with bursts replicating", round, hang)
		}
		stop.Store(true)
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(hang):
			t.Fatalf("round %d: bursts still running %v after Close", round, hang)
		}
	}
}
