package potserve_test

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"potgo/internal/objstore"
	"potgo/internal/obs"
	"potgo/internal/pmem"
	"potgo/internal/potserve"
	"potgo/internal/randtest"
)

// newServer brings up a full stack on a loopback listener: store, sharded
// heap, KV, server.
func newServer(t *testing.T, reg *obs.Registry) (*potserve.Server, *objstore.KV) {
	t.Helper()
	sh, err := pmem.NewSharded(pmem.NewStore(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	kv, err := objstore.CreateKV(sh, "srv")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := potserve.Serve(ln, kv, reg)
	t.Cleanup(func() { s.Close() })
	return s, kv
}

func dial(t *testing.T, s *potserve.Server) *potserve.Client {
	t.Helper()
	c, err := potserve.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// get and del are one GET or DEL round trip, answered as (value, present)
// and (was present).
func get(c *potserve.Client, key uint64) (uint64, bool, error) {
	resp, err := c.Do(potserve.Request{Op: potserve.OpGet, Key: key})
	return resp.Val, err == nil && resp.Status == potserve.StatusOK, err
}

func del(c *potserve.Client, key uint64) (bool, error) {
	resp, err := c.Do(potserve.Request{Op: potserve.OpDel, Key: key})
	return err == nil && resp.Status == potserve.StatusOK, err
}

// TestServerBasic drives every op end-to-end through one connection.
func TestServerBasic(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := newServer(t, reg)
	c := dial(t, s)

	if _, err := c.Do(potserve.Request{Op: potserve.OpPing}); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if _, ok, err := get(c, 1); err != nil || ok {
		t.Fatalf("get absent: ok=%v err=%v", ok, err)
	}
	if created, err := c.Put(1, 100); err != nil || !created {
		t.Fatalf("put new: created=%v err=%v", created, err)
	}
	if created, err := c.Put(1, 101); err != nil || created {
		t.Fatalf("put overwrite: created=%v err=%v", created, err)
	}
	if val, ok, err := get(c, 1); err != nil || !ok || val != 101 {
		t.Fatalf("get: val=%d ok=%v err=%v", val, ok, err)
	}
	if existed, err := del(c, 1); err != nil || !existed {
		t.Fatalf("delete: existed=%v err=%v", existed, err)
	}
	if existed, err := del(c, 1); err != nil || existed {
		t.Fatalf("delete absent: existed=%v err=%v", existed, err)
	}

	tx := []objstore.BatchOp{{Key: 10, Val: 1}, {Key: 11, Val: 2}, {Key: 12, Val: 3}}
	if _, err := c.Do(potserve.Request{Op: potserve.OpTx, Ops: tx}); err != nil {
		t.Fatalf("tx: %v", err)
	}
	kvs, err := c.Scan(10, 100)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(kvs) != 3 || kvs[0].Key != 10 || kvs[2].Key != 12 {
		t.Fatalf("scan result: %+v", kvs)
	}
	kvs, err = c.Scan(11, 1)
	if err != nil || len(kvs) != 1 || kvs[0].Key != 11 {
		t.Fatalf("scan window: %+v err=%v", kvs, err)
	}

	if reg.Counter("potserve.requests.put").Value() != 2 {
		t.Fatalf("put counter: %d", reg.Counter("potserve.requests.put").Value())
	}
}

// TestServerPipelined sends a burst of frames before reading any response
// and checks the responses come back in order.
func TestServerPipelined(t *testing.T) {
	s, _ := newServer(t, nil)
	c := dial(t, s)

	const n = 200
	reqs := make([]potserve.Request, 0, 2*n)
	for i := uint64(0); i < n; i++ {
		reqs = append(reqs, potserve.Request{Op: potserve.OpPut, Key: i, Val: i * 3})
	}
	for i := uint64(0); i < n; i++ {
		reqs = append(reqs, potserve.Request{Op: potserve.OpGet, Key: i})
	}
	resps, err := c.PipelineAppend(reqs, nil)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if len(resps) != 2*n {
		t.Fatalf("%d responses, want %d", len(resps), 2*n)
	}
	for i := uint64(0); i < n; i++ {
		if r := resps[i]; r.Status != potserve.StatusOK || !r.Created {
			t.Fatalf("put %d: %+v", i, r)
		}
		if r := resps[n+i]; r.Status != potserve.StatusOK || r.Val != i*3 {
			t.Fatalf("get %d: %+v", i, r)
		}
	}
}

// TestServerMalformedFrame checks that a decodable frame with a malformed
// body gets a StatusErr while the connection stays usable.
func TestServerMalformedFrame(t *testing.T) {
	s, _ := newServer(t, nil)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Write([]byte{0, 0, 0, 4, 0xff, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	frame, err := potserve.ReadFrameInto(conn, nil)
	if err != nil {
		t.Fatalf("read error response: %v", err)
	}
	if len(frame) == 0 || frame[0] != potserve.StatusErr {
		t.Fatalf("want StatusErr frame, got %x", frame)
	}

	// The stream is still framed: a well-formed request must now succeed.
	c := potserve.NewClient(conn)
	if _, err := c.Do(potserve.Request{Op: potserve.OpPing}); err != nil {
		t.Fatalf("ping after malformed frame: %v", err)
	}
}

// TestServerTxOverflowKeepsServing sends a TX frame whose batch overflows
// the shard undo log: the batch splits tree roots before the log fills, so
// the abort moves them back. The frame must get StatusErr, and the same
// connection must then read and write the pre-batch store correctly.
func TestServerTxOverflowKeepsServing(t *testing.T) {
	s, kv := newServer(t, nil)
	c := dial(t, s)
	for k := uint64(0); k < 4; k++ {
		if _, err := c.Put(k, k+100); err != nil {
			t.Fatal(err)
		}
	}
	ops := make([]objstore.BatchOp, potserve.MaxTxOps)
	for i := range ops {
		ops[i] = objstore.BatchOp{Key: uint64(4 + i), Val: 1}
	}
	var serr *potserve.ServerError
	if _, err := c.Do(potserve.Request{Op: potserve.OpTx, Ops: ops}); !errors.As(err, &serr) || !strings.Contains(serr.Msg, "full") {
		t.Fatalf("oversized tx: got %v, want a log-full ServerError", err)
	}
	for k := uint64(0); k < 4; k++ {
		if v, ok, err := get(c, k); err != nil || !ok || v != k+100 {
			t.Fatalf("get %d after aborted tx: val=%d ok=%v err=%v", k, v, ok, err)
		}
	}
	if _, ok, err := get(c, 4); err != nil || ok {
		t.Fatalf("get of an aborted key: ok=%v err=%v", ok, err)
	}
	if created, err := c.Put(5, 55); err != nil || !created {
		t.Fatalf("put after aborted tx: created=%v err=%v", created, err)
	}
	if v, ok, err := get(c, 5); err != nil || !ok || v != 55 {
		t.Fatalf("get after put: val=%d ok=%v err=%v", v, ok, err)
	}
	if n, err := kv.Check(); err != nil || n != 5 {
		t.Fatalf("check: %d keys, err %v; want 5", n, err)
	}
}

// TestServerConcurrentClients hammers the server from several connections
// on disjoint key residues, then verifies every acknowledged write and the
// store's structural invariants.
func TestServerConcurrentClients(t *testing.T) {
	s, kv := newServer(t, nil)

	const (
		clients = 4
		iters   = 300
	)
	master := randtest.New(t, 7)
	seeds := make([]int64, clients)
	for i := range seeds {
		seeds[i] = master.Int63()
	}

	models := make([]map[uint64]uint64, clients)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := potserve.Dial(s.Addr())
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(seeds[w]))
			model := make(map[uint64]uint64)
			for i := 0; i < iters; i++ {
				// Keys in this client's residue class: no cross-client
				// conflicts, so the final model is exact.
				key := uint64(rng.Intn(50))*clients + uint64(w)
				switch rng.Intn(3) {
				case 0, 1:
					val := rng.Uint64()
					if _, err := c.Put(key, val); err != nil {
						errs[w] = err
						return
					}
					model[key] = val
				case 2:
					if _, err := del(c, key); err != nil {
						errs[w] = err
						return
					}
					delete(model, key)
				}
			}
			models[w] = model
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", w, err)
		}
	}

	c := dial(t, s)
	total := 0
	for w, model := range models {
		total += len(model)
		for key, want := range model {
			val, ok, err := get(c, key)
			if err != nil || !ok || val != want {
				t.Fatalf("client %d key %d: val=%d ok=%v err=%v, want %d", w, key, val, ok, err, want)
			}
		}
	}
	if n, err := kv.Check(); err != nil || n != total {
		t.Fatalf("store check: n=%d err=%v, want %d keys", n, err, total)
	}
}

// TestServerCorruptStatus drives graceful degradation end to end: an
// unrepairable object answers StatusCorrupt, the client surfaces
// ErrCorrupt, and the same connection keeps serving healthy keys.
func TestServerCorruptStatus(t *testing.T) {
	sh, err := pmem.NewSharded(pmem.NewStore(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	kv, err := objstore.CreateKVFT(sh, "srv")
	if err != nil {
		t.Fatal(err)
	}
	const nkeys = 128
	for k := uint64(0); k < nkeys; k++ {
		if _, err := kv.Put(k, k+1000); err != nil {
			t.Fatal(err)
		}
	}
	// Stale parity (see objstore's TestKVFTUnrepairableNeverLies): the
	// overwritten lines are detectable but unrepairable after a flip.
	sh.MutateNoParity(true)
	for k := uint64(0); k < nkeys; k++ {
		if _, err := kv.Put(k, k+2000); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.SyncAll(); err != nil {
		t.Fatal(err)
	}
	sh.SetVerifyOnRead(true)
	seed := uint64(randtest.Seed(t, 73))
	t.Logf("corruption seed %d", seed)
	if _, err := sh.CorruptObjects(3, pmem.CorruptDetect, seed); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := potserve.Serve(ln, kv, nil)
	defer srv.Close()
	c, err := potserve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sawCorrupt := 0
	lastGood := uint64(0)
	for k := uint64(0); k < nkeys; k++ {
		v, ok, err := get(c, k)
		if err != nil {
			if !errors.Is(err, potserve.ErrCorrupt) {
				t.Fatalf("Get(%d): %v", k, err)
			}
			sawCorrupt++
			continue
		}
		if !ok || v != k+2000 {
			t.Fatalf("Get(%d) = %d,%v want %d,true — silent corruption over the wire", k, v, ok, k+2000)
		}
		lastGood = k
	}
	if sawCorrupt == 0 {
		t.Fatal("no lookup tripped over the injected faults; test exercised nothing")
	}
	t.Logf("%d keys answered StatusCorrupt", sawCorrupt)
	// The connection is still in sync after corrupt answers.
	if v, ok, err := get(c, lastGood); err != nil || !ok || v != lastGood+2000 {
		t.Fatalf("healthy Get after corrupt answers = %d,%v,%v", v, ok, err)
	}
}
