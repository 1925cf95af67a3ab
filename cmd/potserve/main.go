// Command potserve serves the persistent object store over TCP: a sharded
// persistent heap (internal/pmem), a shard-per-pool B+-tree KV store
// (internal/objstore) and the length-prefixed binary protocol of
// internal/potserve. Connections are handled concurrently and requests on
// one connection are pipelined.
//
// The store lives in the in-memory NVM simulation, so potserve is a
// workload vehicle, not a database: its contents vanish with the process.
//
// Usage:
//
//	potserve -listen 127.0.0.1:7070 -shards 8
//
// Cluster mode turns the process into one member of a replicated cluster:
// a static membership is given as id=addr pairs, keys hash to owners on a
// consistent ring, each member follows its peers' op logs and a write is
// acknowledged only once a majority of the membership holds it. Start one
// process per member:
//
//	potserve -node 0 -peers '0=127.0.0.1:7070,1=127.0.0.1:7071,2=127.0.0.1:7072'
//	potserve -node 1 -peers '0=127.0.0.1:7070,1=127.0.0.1:7071,2=127.0.0.1:7072'
//	potserve -node 2 -peers '0=127.0.0.1:7070,1=127.0.0.1:7071,2=127.0.0.1:7072'
//
// and point clients (cluster.DialCluster) at any member.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"potgo/internal/cluster"
	"potgo/internal/objstore"
	"potgo/internal/obs"
	"potgo/internal/pmem"
	"potgo/internal/potserve"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:7070", "serve the object protocol on this TCP address (cluster mode: defaults to this node's -peers address)")
		shards  = flag.Int("shards", 8, "heap lock shards and KV tree shards")
		seed    = flag.Uint64("seed", 1, "heap layout seed")
		metrics = flag.String("metrics", "", "serve live metrics on this address at /debug/vars (expvar JSON)")
		peers   = flag.String("peers", "", "cluster mode: static membership as 'id=addr,id=addr,...' (must include -node)")
		nodeID  = flag.Int("node", -1, "cluster mode: this member's id within -peers")
	)
	flag.Parse()

	reg := obs.NewRegistry()
	if *metrics != "" {
		addr, _, err := reg.Serve(*metrics)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "potserve: metrics at http://%s/debug/vars\n", addr)
	}

	var members []potserve.TopoNode
	if *peers != "" {
		var err error
		members, err = parsePeers(*peers)
		if err != nil {
			fatal(err)
		}
		self := -1
		for i, m := range members {
			if m.ID == uint32(*nodeID) && *nodeID >= 0 {
				self = i
			}
		}
		if self < 0 {
			fatal(fmt.Errorf("-peers needs -node naming one of its ids"))
		}
		// In cluster mode the member's advertised address IS its listen
		// address unless -listen overrides it explicitly.
		if flag.Lookup("listen").Value.String() == flag.Lookup("listen").DefValue {
			*listen = members[self].Addr
		}
	}

	sh, err := pmem.NewSharded(pmem.NewStore(), *shards, int64(*seed))
	if err != nil {
		fatal(err)
	}
	sh.Heap().AttachObs(reg)
	kv, err := objstore.CreateKV(sh, "potserve")
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	var srv *potserve.Server
	if members != nil {
		kv.EnableJournal()
		node := cluster.NewNode(uint32(*nodeID), kv, cluster.NewTopology(1, members))
		srv = potserve.ServeBackend(ln, node, reg)
		// The applied replication logs are volatile and would otherwise
		// grow without bound in a long-lived member; trim them periodically
		// to what the peers have confirmed (plus a catch-up tail).
		compactDone := make(chan struct{})
		defer close(compactDone)
		go func() {
			t := time.NewTicker(30 * time.Second)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					node.SelfCompact()
				case <-compactDone:
					return
				}
			}
		}()
		fmt.Fprintf(os.Stderr, "potserve: cluster member %d/%d serving on %s (%d shards, quorum %d)\n",
			*nodeID, len(members), srv.Addr(), *shards, len(members)/2+1)
	} else {
		srv = potserve.Serve(ln, kv, reg)
		fmt.Fprintf(os.Stderr, "potserve: serving on %s (%d shards)\n", srv.Addr(), *shards)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "potserve: shutting down")
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

// parsePeers parses 'id=addr,id=addr,...' into a sorted, all-alive static
// membership.
func parsePeers(spec string) ([]potserve.TopoNode, error) {
	var out []potserve.TopoNode
	seen := make(map[uint32]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-peers entry %q is not id=addr", part)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(id), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("-peers entry %q: bad id: %w", part, err)
		}
		if seen[uint32(n)] {
			return nil, fmt.Errorf("-peers repeats id %d", n)
		}
		seen[uint32(n)] = true
		out = append(out, potserve.TopoNode{ID: uint32(n), Alive: true, Addr: strings.TrimSpace(addr)})
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("-peers needs at least 2 members, got %d", len(out))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "potserve: %v\n", err)
	os.Exit(1)
}
