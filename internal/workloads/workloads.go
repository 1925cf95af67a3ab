package workloads

import (
	"potgo/internal/pds"
)

// Spec describes one microbenchmark of paper Table 5.
type Spec struct {
	// Name and Abbr label the benchmark ("Linked-list", "LL").
	Name, Abbr string
	// DefaultOps is the paper's operation count.
	DefaultOps int
	// DefaultKeyRange is the key universe the random integers are drawn
	// from (the paper does not pin these; chosen so that structures see
	// the mix of hits and misses the descriptions imply).
	DefaultKeyRange uint64
	// Run executes ops operations and returns a functional checksum that
	// must agree across BASE/OPT/pattern configurations with the same
	// seed.
	Run func(env *Env, ops int, keyRange uint64) (uint64, error)
}

// Specs lists the paper's six microbenchmarks in its Table 5 order.
var Specs = []Spec{
	{"Linked-list", "LL", 700, 1000, RunLL},
	{"Binary Search Tree", "BST", 5000, 10000, RunBST},
	{"String Position Swap", "SPS", 10000, 0, RunSPS},
	{"Red-black Tree", "RBT", 3000, 6000, RunRBT},
	{"B-Tree", "BT", 5000, 10000, RunBT},
	{"B+ Tree", "B+T", 5000, 10000, RunBPlus},
}

// ByAbbr finds a spec by its abbreviation.
func ByAbbr(abbr string) (Spec, bool) {
	for _, s := range Specs {
		if s.Abbr == abbr {
			return s, true
		}
	}
	return Spec{}, false
}

// RunLL is the LL workload: search random integers in the list; remove on a
// hit, insert at the head on a miss.
func RunLL(env *Env, ops int, keyRange uint64) (uint64, error) {
	cell, err := env.RootCell(0)
	if err != nil {
		return 0, err
	}
	l := pds.NewList(pds.NewCell(env.H, cell))
	for i := 0; i < ops; i++ {
		key, _ := env.NextKey(keyRange)
		if err := env.Begin(); err != nil {
			return 0, err
		}
		removed, err := l.Remove(env, key)
		if err != nil {
			return 0, err
		}
		if !removed {
			if err := l.Insert(env, key); err != nil {
				return 0, err
			}
		}
		if err := env.End(); err != nil {
			return 0, err
		}
	}
	keys, err := l.Keys(env)
	if err != nil {
		return 0, err
	}
	return checksum(keys), nil
}

// RunBST is the BST workload: search; remove on a hit (replacing a
// two-child node with the max of its left subtree), insert on a miss.
func RunBST(env *Env, ops int, keyRange uint64) (uint64, error) {
	cell, err := env.RootCell(0)
	if err != nil {
		return 0, err
	}
	t := pds.NewBST(pds.NewCell(env.H, cell))
	for i := 0; i < ops; i++ {
		key, _ := env.NextKey(keyRange)
		if err := env.Begin(); err != nil {
			return 0, err
		}
		removed, err := t.Remove(env, key)
		if err != nil {
			return 0, err
		}
		if !removed {
			if err := t.Insert(env, key); err != nil {
				return 0, err
			}
		}
		if err := env.End(); err != nil {
			return 0, err
		}
	}
	keys, err := t.InOrder(env)
	if err != nil {
		return 0, err
	}
	return checksum(keys), nil
}

// RunRBT is the RBT workload: search; remove and rebalance on a hit, insert
// and rebalance on a miss.
func RunRBT(env *Env, ops int, keyRange uint64) (uint64, error) {
	cell, err := env.RootCell(0)
	if err != nil {
		return 0, err
	}
	t := pds.NewRBT(pds.NewCell(env.H, cell))
	for i := 0; i < ops; i++ {
		key, _ := env.NextKey(keyRange)
		if err := env.Begin(); err != nil {
			return 0, err
		}
		removed, err := t.Remove(env, key)
		if err != nil {
			return 0, err
		}
		if !removed {
			if err := t.Insert(env, key); err != nil {
				return 0, err
			}
		}
		if err := env.End(); err != nil {
			return 0, err
		}
	}
	if _, err := t.CheckInvariants(env); err != nil {
		return 0, err
	}
	keys, err := t.InOrder(env)
	if err != nil {
		return 0, err
	}
	return checksum(keys), nil
}

// RunBT is the BT workload: search; insert (with rebalance via splits) when
// missing. Table 5 lists no deletion for BT.
func RunBT(env *Env, ops int, keyRange uint64) (uint64, error) {
	cell, err := env.RootCell(0)
	if err != nil {
		return 0, err
	}
	t := pds.NewBTree(pds.NewCell(env.H, cell))
	for i := 0; i < ops; i++ {
		key, _ := env.NextKey(keyRange)
		if err := env.Begin(); err != nil {
			return 0, err
		}
		found, err := t.Find(env, key)
		if err != nil {
			return 0, err
		}
		if !found {
			if err := t.Insert(env, key); err != nil {
				return 0, err
			}
		}
		if err := env.End(); err != nil {
			return 0, err
		}
	}
	n, err := t.CheckInvariants(env)
	if err != nil {
		return 0, err
	}
	return uint64(n), nil
}

// RunBPlus is the B+T workload: search; remove on a hit, insert on a miss,
// rebalancing in both directions.
func RunBPlus(env *Env, ops int, keyRange uint64) (uint64, error) {
	cell, err := env.RootCell(0)
	if err != nil {
		return 0, err
	}
	t := pds.NewBPlus(pds.NewCell(env.H, cell))
	for i := 0; i < ops; i++ {
		key, _ := env.NextKey(keyRange)
		if err := env.Begin(); err != nil {
			return 0, err
		}
		removed, err := t.Remove(env, key)
		if err != nil {
			return 0, err
		}
		if !removed {
			if err := t.Insert(env, key, key); err != nil {
				return 0, err
			}
		}
		if err := env.End(); err != nil {
			return 0, err
		}
	}
	kvs, err := t.Scan(env, 0, 1<<30)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for _, kv := range kvs {
		sum = sum*31 + kv.Key
	}
	return sum ^ uint64(len(kvs)), nil
}

// SPSStrings is the paper's array size: 1024 strings of 32 bytes = 32 KB.
const SPSStrings = 1024

// RunSPS is the SPS workload: randomly swap pairs of strings in the string
// array. keyRange is unused (the array size is fixed).
func RunSPS(env *Env, ops int, _ uint64) (uint64, error) {
	cell, err := env.RootCell(0)
	if err != nil {
		return 0, err
	}
	sa := pds.NewStringArray(pds.NewCell(env.H, cell), SPSStrings, pds.StringBytes)
	if err := sa.Init(env); err != nil {
		return 0, err
	}
	for i := 0; i < ops; i++ {
		a, _ := env.NextInt(SPSStrings)
		b, _ := env.NextInt(SPSStrings)
		if err := env.Begin(); err != nil {
			return 0, err
		}
		if err := sa.Swap(env, a, b); err != nil {
			return 0, err
		}
		if err := env.End(); err != nil {
			return 0, err
		}
	}
	// Checksum: first byte of each string in order.
	var sum uint64
	for i := 0; i < SPSStrings; i++ {
		s, err := sa.Get(env, i)
		if err != nil {
			return 0, err
		}
		sum = sum*131 + uint64(s[0])
	}
	return sum, nil
}

func checksum(keys []uint64) uint64 {
	var sum uint64
	for _, k := range keys {
		sum = sum*31 + k + 1
	}
	return sum ^ uint64(len(keys))
}
