package cluster

import (
	"errors"
	"fmt"
	"sort"

	"potgo/internal/pds"
	"potgo/internal/potserve"
)

// maxAttempts bounds a routed operation: first try plus re-routes after a
// topology refresh. Three attempts ride out one failover (stale route →
// refresh → new owner).
const maxAttempts = 3

// Client routes requests to the owning node, refreshing its topology view
// whenever a node redirects (StatusNotOwner), dies (connection error), or
// the epoch moves on. Not safe for concurrent use; open one per goroutine,
// like potserve.Client.
//
// A write that errors out may or may not have been applied (the classic
// unacknowledged-write ambiguity); the client retries it on the refreshed
// topology, which is safe because puts and deletes are idempotent — a
// replayed entry writes the same value again.
type Client struct {
	seeds []string
	topo  Topology
	conns map[uint32]*potserve.Client

	// Pipeline scratch, reused across calls: the request indices routed to
	// each member, and one member's sub-batch and its responses.
	groups map[uint32][]int
	sub    []potserve.Request
	resps  []potserve.Response
}

// DialCluster fetches the topology from the first reachable seed address
// and returns a routing client.
func DialCluster(seeds []string) (*Client, error) {
	c := &Client{seeds: seeds, conns: make(map[uint32]*potserve.Client), groups: make(map[uint32][]int)}
	if err := c.Refresh(); err != nil {
		return nil, err
	}
	return c, nil
}

// Refresh re-fetches the topology from any reachable member (current
// connections first, then the seed list) and drops connections to members
// no longer alive.
func (c *Client) Refresh() error {
	var lastErr error
	try := func(pc *potserve.Client) bool {
		topo, err := pc.Topo()
		if err != nil {
			lastErr = err
			return false
		}
		if topo.Epoch >= c.topo.Epoch() {
			c.topo = FromWire(topo)
		}
		return true
	}
	for id, pc := range c.conns {
		if try(pc) {
			c.prune()
			return nil
		}
		pc.Close()
		delete(c.conns, id)
	}
	for _, addr := range c.seeds {
		pc, err := potserve.Dial(addr)
		if err != nil {
			lastErr = err
			continue
		}
		ok := try(pc)
		pc.Close()
		if ok {
			c.prune()
			return nil
		}
	}
	if lastErr == nil {
		lastErr = errors.New("cluster: no reachable member")
	}
	return fmt.Errorf("cluster: topology refresh failed: %w", lastErr)
}

// prune closes connections to members the current topology marks dead.
func (c *Client) prune() {
	for id, pc := range c.conns {
		alive := false
		for _, n := range c.topo.Wire.Nodes {
			if n.ID == id && n.Alive {
				alive = true
			}
		}
		if !alive {
			pc.Close()
			delete(c.conns, id)
		}
	}
}

// Topology returns the client's current topology view.
func (c *Client) Topology() Topology { return c.topo }

// Close closes every member connection.
func (c *Client) Close() {
	for id, pc := range c.conns {
		pc.Close()
		delete(c.conns, id)
	}
}

// conn returns a connection to the member owning key.
func (c *Client) conn(key uint64) (*potserve.Client, uint32, error) {
	id, ok := c.topo.Owner(key)
	if !ok {
		return nil, 0, errors.New("cluster: empty topology")
	}
	pc, err := c.connTo(id)
	return pc, id, err
}

// connTo returns (dialing if needed) a connection to one member.
func (c *Client) connTo(id uint32) (*potserve.Client, error) {
	if pc, ok := c.conns[id]; ok {
		return pc, nil
	}
	addr, ok := c.topo.Addr(id)
	if !ok {
		return nil, fmt.Errorf("cluster: no address for node %d", id)
	}
	pc, err := potserve.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.conns[id] = pc
	return pc, nil
}

// drop closes and forgets the connection to one member.
func (c *Client) drop(id uint32) {
	if pc, ok := c.conns[id]; ok {
		pc.Close()
		delete(c.conns, id)
	}
}

// retriable reports whether an operation error warrants a topology refresh
// and re-route: redirects and transport errors do; server-side data errors
// (including quorum refusals) do not change under a re-route... except that
// a quorum refusal right after a node death IS resolved by failover, so the
// caller decides how often to retry those.
func retriable(err error) bool {
	var se *potserve.ServerError
	if errors.As(err, &se) {
		return false
	}
	return !errors.Is(err, potserve.ErrCorrupt)
}

// route runs op against the owner of key, refreshing and re-routing on
// redirects and connection errors.
func (c *Client) route(key uint64, op func(*potserve.Client) error) error {
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		pc, id, err := c.conn(key)
		if err != nil {
			lastErr = err
			if rerr := c.Refresh(); rerr != nil {
				return rerr
			}
			continue
		}
		err = op(pc)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retriable(err) {
			return err
		}
		if !errors.Is(err, potserve.ErrNotOwner) {
			c.drop(id) // transport error: the connection is gone
		}
		if rerr := c.Refresh(); rerr != nil {
			return rerr
		}
	}
	return fmt.Errorf("cluster: giving up after %d attempts: %w", maxAttempts, lastErr)
}

// Get fetches a key from its owner; ok reports presence.
func (c *Client) Get(key uint64) (val uint64, ok bool, err error) {
	err = c.route(key, func(pc *potserve.Client) error {
		var e error
		val, ok, e = pc.Get(key)
		return e
	})
	return val, ok, err
}

// Put upserts a key through its owner; created reports whether it was
// absent.
func (c *Client) Put(key, val uint64) (created bool, err error) {
	err = c.route(key, func(pc *potserve.Client) error {
		var e error
		created, e = pc.Put(key, val)
		return e
	})
	return created, err
}

// Delete removes a key through its owner; existed reports whether it was
// present.
//
//potlint:allow unusedexport kept for TestClusterBasic
func (c *Client) Delete(key uint64) (existed bool, err error) {
	err = c.route(key, func(pc *potserve.Client) error {
		var e error
		existed, e = pc.Delete(key)
		return e
	})
	return existed, err
}

// Scan returns up to max pairs with key >= from, ascending, merged across
// the cluster: every alive member scans its local replica and the client
// keeps each pair only from the member owning it, so the result reflects
// each segment's authoritative copy.
func (c *Client) Scan(from uint64, max int) ([]pds.KV, error) {
	for attempt := 0; ; attempt++ {
		out, err := c.scanOnce(from, max)
		if err == nil {
			return out, nil
		}
		if attempt+1 >= maxAttempts || !retriable(err) {
			return nil, err
		}
		if rerr := c.Refresh(); rerr != nil {
			return nil, rerr
		}
	}
}

func (c *Client) scanOnce(from uint64, max int) ([]pds.KV, error) {
	var merged []pds.KV
	for _, id := range c.topo.AliveIDs() {
		pc, err := c.connTo(id)
		if err != nil {
			return nil, err
		}
		kvs, err := pc.Scan(from, max)
		if err != nil {
			c.drop(id)
			return nil, err
		}
		for _, kv := range kvs {
			if owner, ok := c.topo.Owner(kv.Key); ok && owner == id {
				merged = append(merged, kv)
			}
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Key < merged[j].Key })
	if max >= 0 && len(merged) > max {
		merged = merged[:max]
	}
	return merged, nil
}

// Pipeline routes a batch: requests partition by owner, each member's
// sub-batch rides one pipelined potserve round trip, and the responses
// land back at their original indices. On a redirect or connection error
// the whole batch is retried on a refreshed topology (idempotent ops make
// the replay safe).
func (c *Client) Pipeline(reqs []potserve.Request) ([]potserve.Response, error) {
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		resps, err := c.pipelineOnce(reqs)
		if err == nil {
			return resps, nil
		}
		lastErr = err
		if !retriable(err) {
			return nil, err
		}
		if rerr := c.Refresh(); rerr != nil {
			return nil, rerr
		}
	}
	return nil, fmt.Errorf("cluster: pipeline giving up after %d attempts: %w", maxAttempts, lastErr)
}

func (c *Client) pipelineOnce(reqs []potserve.Request) ([]potserve.Response, error) {
	for id := range c.groups {
		c.groups[id] = c.groups[id][:0]
	}
	for i, req := range reqs {
		key := req.Key
		if req.Op == potserve.OpScan || req.Op == potserve.OpPing {
			// Keyless ops ride to an arbitrary alive member.
			ids := c.topo.AliveIDs()
			if len(ids) == 0 {
				return nil, errors.New("cluster: empty topology")
			}
			c.groups[ids[i%len(ids)]] = append(c.groups[ids[i%len(ids)]], i)
			continue
		}
		id, ok := c.topo.Owner(key)
		if !ok {
			return nil, errors.New("cluster: empty topology")
		}
		c.groups[id] = append(c.groups[id], i)
	}
	out := make([]potserve.Response, len(reqs))
	for id, idxs := range c.groups {
		if len(idxs) == 0 {
			continue
		}
		pc, err := c.connTo(id)
		if err != nil {
			return nil, err
		}
		c.sub = c.sub[:0]
		for _, i := range idxs {
			c.sub = append(c.sub, reqs[i])
		}
		c.resps, err = pc.PipelineAppend(c.sub, c.resps)
		if err != nil {
			c.drop(id)
			return nil, err
		}
		for j, i := range idxs {
			// Move, not copy: the caller keeps out, so the scratch slot must
			// not go on aliasing a scan result it handed over.
			out[i], c.resps[j] = c.resps[j], potserve.Response{}
			if out[i].Status == potserve.StatusNotOwner {
				return nil, potserve.ErrNotOwner
			}
		}
	}
	return out, nil
}
