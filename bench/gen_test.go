package main

import (
	"math"
	"testing"
)

func firstRequests(seed uint64, n int) []uint64 {
	s := newStream(seed, 0, conns, shards, 5000, opMix{getPct: 50, putPct: 40}, newZipf(5000, 0.99))
	var out []uint64
	for i := 0; i < n; i++ {
		req, idx := s.next()
		out = append(out, uint64(req.Op), req.Key, req.Val, uint64(idx))
	}
	return out
}

func TestStreamIsDeterministicPerSeed(t *testing.T) {
	a, b, c := firstRequests(7, 1000), firstRequests(7, 1000), firstRequests(8, 1000)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 drew two different streams at word %d", i)
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Fatalf("seeds 7 and 8 agree on %d of %d words", same, len(a))
	}
}

// The most popular rank must draw the share of requests the zipfian law
// gives it, 1/zeta(n, theta), and popularity must fall off with rank.
func TestZipfMass(t *testing.T) {
	const n, draws = 50000, 400000
	z := newZipf(n, 0.99)
	r := newRng(1, 0)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.rank(r.float())]++
	}
	want := 1 / z.zetan
	if got := float64(counts[0]) / draws; math.Abs(got-want)/want > 0.05 {
		t.Errorf("rank 0 drew %.4f of requests, the law says %.4f", got, want)
	}
	top := 0
	for _, c := range counts[:n/100] {
		top += c
	}
	if share := float64(top) / draws; share < 0.5 || share > 0.8 {
		t.Errorf("the top 1%% of ranks drew %.2f of requests, want roughly 0.6 at theta 0.99", share)
	}
	if counts[0] <= counts[10] || counts[10] <= counts[1000] {
		t.Errorf("popularity does not fall with rank: %d, %d, %d", counts[0], counts[10], counts[1000])
	}
}

// Every connection must own keys on every shard, no key may have two owners,
// and together the connections must own the whole key space.
func TestKeyPartition(t *testing.T) {
	const perConn = 4000
	owner := map[uint64]int{}
	for c := 0; c < conns; c++ {
		onShard := make([]int, shards)
		for idx := 0; idx < perConn; idx++ {
			k := keyOf(idx, c, conns, shards)
			if prev, dup := owner[k]; dup {
				t.Fatalf("key %d belongs to connections %d and %d", k, prev, c)
			}
			owner[k] = c
			onShard[k%shards]++
		}
		for sh, n := range onShard {
			if n != perConn/shards {
				t.Errorf("connection %d owns %d keys on shard %d, want %d", c, n, sh, perConn/shards)
			}
		}
	}
	for k := uint64(0); k < conns*perConn; k++ {
		if _, ok := owner[k]; !ok {
			t.Fatalf("key %d has no owner", k)
		}
	}
	loaded := 0
	for idx := 0; idx < perConn; idx++ {
		if preloaded(idx, shards, true) {
			loaded++
		}
	}
	if loaded != perConn/2 {
		t.Errorf("half preload loads %d of %d keys", loaded, perConn)
	}
}
