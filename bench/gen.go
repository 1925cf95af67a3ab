package main

import (
	"math"

	"potgo/internal/potserve"
)

// rng is splitmix64: tiny, seedable, and identical on every Go version, so a
// seed names one request stream forever.
type rng struct{ s uint64 }

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func newRng(seed uint64, lane uint64) *rng {
	return &rng{s: mix64(seed*0x9e3779b97f4a7c15 + lane + 1)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf is the YCSB zipfian generator (Gray et al.) over ranks [0, n): rank 0
// is the most popular. The ranks are scrambled onto key indices by
// scrambled(), so hot keys spread over every shard.
type zipf struct {
	n                       int
	theta, zetan, eta, half float64
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{n: n, theta: theta, half: math.Pow(0.5, theta)}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + z.half
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

func (z *zipf) rank(u float64) int {
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < 1+z.half:
		return 1
	}
	r := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, 1/(1-z.theta)))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// scrambled maps a popularity rank onto a key index.
func scrambled(rank, n int) int { return int(mix64(uint64(rank)+0x5bd1e995) % uint64(n)) }

// opMix is a traffic mix in percent; the remainder after gets and puts is
// deletes.
type opMix struct{ getPct, putPct int }

// keyOf places connection conn's idx-th key in the global key space. The
// store routes key%shards to a shard, so ownership goes by key/shards:
// every connection then owns keys on every shard, and two connections
// contend for shard locks as real clients would. (Ownership by key%conns
// would hand each connection private shards.)
func keyOf(idx, conn, conns, shards int) uint64 {
	return uint64((idx/shards*conns+conn)*shards + idx%shards)
}

// preloaded reports whether connection-local key idx is loaded before the
// run: whole rows of `shards` keys alternate, so every shard gets its share.
func preloaded(idx, shards int, half bool) bool {
	return !half || (idx/shards)%2 == 0
}

// stream generates one connection's requests and keeps the exact model of
// the keys that connection owns. Only this connection ever touches them, so
// every response is determined by the model and is verified against it.
type stream struct {
	r             *rng
	conn, conns   int
	shards, nKeys int
	mix           opMix
	z             *zipf // nil: uniform keys

	present []bool
	vals    []uint64
}

func newStream(seed uint64, conn, conns, shards, nKeys int, mix opMix, z *zipf) *stream {
	return &stream{
		r: newRng(seed, uint64(conn)), conn: conn, conns: conns, shards: shards,
		nKeys: nKeys, mix: mix, z: z,
		present: make([]bool, nKeys), vals: make([]uint64, nKeys),
	}
}

// next draws one request and returns it with the connection-local key index
// the verifier needs.
func (s *stream) next() (potserve.Request, int) {
	var idx int
	if s.z != nil {
		idx = scrambled(s.z.rank(s.r.float()), s.nKeys)
	} else {
		idx = s.r.intn(s.nKeys)
	}
	key := keyOf(idx, s.conn, s.conns, s.shards)
	switch p := s.r.intn(100); {
	case p < s.mix.getPct:
		return potserve.Request{Op: potserve.OpGet, Key: key}, idx
	case p < s.mix.getPct+s.mix.putPct:
		return potserve.Request{Op: potserve.OpPut, Key: key, Val: s.r.next()}, idx
	}
	return potserve.Request{Op: potserve.OpDel, Key: key}, idx
}

// check verifies one response against the model and applies the request to
// it. It returns "" when the response is the one the model predicts.
func (s *stream) check(req *potserve.Request, idx int, resp *potserve.Response) string {
	had, old := s.present[idx], s.vals[idx]
	if resp.Status == potserve.StatusErr {
		// The write may or may not have been applied; the model assumes it
		// was, and the failure is counted either way.
		switch req.Op {
		case potserve.OpPut:
			s.present[idx], s.vals[idx] = true, req.Val
		case potserve.OpDel:
			s.present[idx] = false
		}
		return "server error: " + resp.Msg
	}
	switch req.Op {
	case potserve.OpGet:
		switch {
		case resp.Status == potserve.StatusOK && had && resp.Val == old:
		case resp.Status == potserve.StatusNotFound && !had:
		default:
			return "get disagrees with model"
		}
	case potserve.OpPut:
		s.present[idx], s.vals[idx] = true, req.Val
		if resp.Status != potserve.StatusOK || resp.Created == had {
			return "put disagrees with model"
		}
	case potserve.OpDel:
		s.present[idx] = false
		want := potserve.StatusNotFound
		if had {
			want = potserve.StatusOK
		}
		if resp.Status != want {
			return "delete disagrees with model"
		}
	}
	return ""
}
