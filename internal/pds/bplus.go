package pds

import (
	"fmt"

	"potgo/internal/isa"
	"potgo/internal/oid"
	"potgo/internal/pmem"
)

// BPlus is a B+ tree of order 7: internal nodes hold up to 6 separator keys
// and 7 children; leaves hold up to 6 key/value pairs and are chained for
// range scans. This is the paper's B+T workload (insert and delete with
// rebalancing, Table 5) and the index structure its TPC-C tables use.
//
// The root ObjectID is cached in volatile memory after the first read, the
// way applications hold their root TOID in a register/local: the anchor
// cell is only re-read after the cache is dropped (fresh handle) and only
// re-written when a split or collapse moves the root.
//
// Insert, Update and Remove decode the nodes they visit into a scratch arena
// the tree owns and reuses, so a structural change allocates nothing once the
// arena has reached the tree's depth. The root cache holds an ObjectID, never
// a node, so nothing decoded outlives the operation that decoded it. Mutating
// operations already require exclusive use of the tree; the read-only ones
// (Find, Scan, CheckInvariants, VisitNodes) may share it and so keep their
// nodes to themselves.
type BPlus struct {
	root      Cell
	cached    oid.OID
	haveCache bool
	sc        bpScratch
}

const (
	bpLeafOff = 0
	bpNOff    = 8
	bpKeysOff = 16 // 6 keys
	bpKidsOff = 64 // internal: 7 children
	bpValsOff = 64 // leaf: 6 values
	bpNextOff = 112
	bpOrder   = 7
	bpMaxKeys = bpOrder - 1
	// bpMinKeys is the minimum fill for non-root nodes.
	bpMinKeys  = bpMaxKeys / 2 // 3
	bpNodeSize = 128
)

// NewBPlus builds a tree anchored at the given cell.
func NewBPlus(root Cell) *BPlus { return &BPlus{root: root} }

// rootOID returns the root ObjectID, reading the anchor cell only when the
// volatile cache is cold.
func (t *BPlus) rootOID() (pmem.Word, error) {
	if t.haveCache {
		return pmem.Word{V: uint64(t.cached)}, nil
	}
	w, err := t.root.Get()
	if err != nil {
		return pmem.Word{}, err
	}
	t.cached, t.haveCache = w.OID(), true
	return w, nil
}

// DropCache invalidates the volatile root cache so the next access
// re-reads the anchor cell. Reattachment code paths that may have read
// the anchor while the media was corrupt (mount before a scrub) call
// this once the bytes are repaired: a poisoned cached OID otherwise
// outlives the repair.
func (t *BPlus) DropCache() { t.haveCache = false }

// setRootOID writes the anchor (snapshotting via ctx) and refreshes the
// cache.
func (t *BPlus) setRootOID(ctx Ctx, v oid.OID) error {
	if err := ctx.Touch(t.root.OID(), 8); err != nil {
		return err
	}
	if err := t.root.Set(v, pmem.Word{}); err != nil {
		return err
	}
	t.cached, t.haveCache = v, true
	return nil
}

// KV is one key/value pair returned by scans.
type KV struct {
	Key uint64
	Val uint64
}

// bpNode is the decoded, volatile image of one node. Its slices live in its
// own fixed arrays — one entry more than a node may hold, for the overfull
// node an insert builds just before splitting it — so a node is used through
// a pointer and never copied.
type bpNode struct {
	oid  oid.OID
	leaf bool
	keys []uint64
	kids []oid.OID // internal
	vals []uint64  // leaf
	next oid.OID   // leaf chain

	keyBuf [bpMaxKeys + 1]uint64
	valBuf [bpMaxKeys + 1]uint64
	kidBuf [bpOrder + 1]oid.OID
}

// init makes nd an empty node with the given identity.
func (nd *bpNode) init(o oid.OID, leaf bool) *bpNode {
	nd.oid, nd.leaf, nd.next = o, leaf, oid.Null
	nd.keys, nd.vals, nd.kids = nd.keyBuf[:0], nd.valBuf[:0], nd.kidBuf[:0]
	return nd
}

// bpScratch is the node and path storage of one tree operation: the tree's
// own for the mutating operations, a fresh one for the read-only ones.
type bpScratch struct {
	nodes []*bpNode
	used  int
	path  []bpStep
}

// node returns the next unused scratch node, growing the arena on demand.
func (sc *bpScratch) node() *bpNode {
	if sc.used == len(sc.nodes) {
		sc.nodes = append(sc.nodes, new(bpNode))
	}
	sc.used++
	return sc.nodes[sc.used-1]
}

// scratch recycles the tree's arena for a new mutating operation.
func (t *BPlus) scratch() *bpScratch {
	t.sc.used = 0
	return &t.sc
}

// read decodes node o into nd.
func (t *BPlus) read(ctx Ctx, o oid.OID, dep isa.Reg, nd *bpNode) error {
	ref, err := ctx.Heap().Deref(o, dep)
	if err != nil {
		return err
	}
	leafW, err := ref.Load64(bpLeafOff)
	if err != nil {
		return err
	}
	nW, err := ref.Load64(bpNOff)
	if err != nil {
		return err
	}
	n := int(nW.V)
	if n > bpMaxKeys {
		return fmt.Errorf("pds: corrupt b+tree node %v: n=%d", o, n)
	}
	nd.init(o, leafW.V != 0)
	nd.keys = nd.keyBuf[:n]
	for i := 0; i < n; i++ {
		w, err := ref.Load64(uint32(bpKeysOff + 8*i))
		if err != nil {
			return err
		}
		nd.keys[i] = w.V
	}
	if nd.leaf {
		nd.vals = nd.valBuf[:n]
		for i := 0; i < n; i++ {
			w, err := ref.Load64(uint32(bpValsOff + 8*i))
			if err != nil {
				return err
			}
			nd.vals[i] = w.V
		}
		w, err := ref.Load64(bpNextOff)
		if err != nil {
			return err
		}
		nd.next = w.OID()
	} else {
		nd.kids = nd.kidBuf[:n+1]
		for i := 0; i <= n; i++ {
			w, err := ref.Load64(uint32(bpKidsOff + 8*i))
			if err != nil {
				return err
			}
			nd.kids[i] = w.OID()
		}
	}
	return nil
}

func (t *BPlus) write(ctx Ctx, nd *bpNode) error {
	if err := ctx.Touch(nd.oid, bpNodeSize); err != nil {
		return err
	}
	ref, err := ctx.Heap().Deref(nd.oid, isa.RZ)
	if err != nil {
		return err
	}
	leaf := uint64(0)
	if nd.leaf {
		leaf = 1
	}
	if err := ref.Store64(bpLeafOff, leaf, isa.RZ); err != nil {
		return err
	}
	if err := ref.Store64(bpNOff, uint64(len(nd.keys)), isa.RZ); err != nil {
		return err
	}
	for i, k := range nd.keys {
		if err := ref.Store64(uint32(bpKeysOff+8*i), k, isa.RZ); err != nil {
			return err
		}
	}
	if nd.leaf {
		for i, v := range nd.vals {
			if err := ref.Store64(uint32(bpValsOff+8*i), v, isa.RZ); err != nil {
				return err
			}
		}
		if err := ref.Store64(bpNextOff, uint64(nd.next), isa.RZ); err != nil {
			return err
		}
	} else {
		for i, c := range nd.kids {
			if err := ref.Store64(uint32(bpKidsOff+8*i), uint64(c), isa.RZ); err != nil {
				return err
			}
		}
	}
	return nil
}

type bpStep struct {
	node *bpNode
	idx  int // child index taken (internal) / key position (leaf)
}

// descend walks root→leaf for key, returning the path; its nodes and the
// path itself live in sc.
func (t *BPlus) descend(ctx Ctx, key uint64, sc *bpScratch) ([]bpStep, error) {
	rootW, err := t.rootOID()
	if err != nil {
		return nil, err
	}
	if rootW.OID().IsNull() {
		return nil, nil
	}
	e := ctx.Heap().Emit
	path := sc.path[:0]
	cur, dep := rootW.OID(), rootW.Reg
	for {
		nd := sc.node()
		if err := t.read(ctx, cur, dep, nd); err != nil {
			return nil, err
		}
		if nd.leaf {
			i := 0
			for i < len(nd.keys) && nd.keys[i] < key {
				i++
			}
			e.Compute(nodeWork)
			e.Branch("bp.leafpos", i < len(nd.keys))
			path = append(path, bpStep{nd, i})
			sc.path = path // keep the grown array for the next operation
			return path, nil
		}
		i := 0
		for i < len(nd.keys) && key >= nd.keys[i] {
			i++
		}
		e.Compute(nodeWork)
		e.Branch("bp.descend", true)
		path = append(path, bpStep{nd, i})
		cur, dep = nd.kids[i], isa.RZ
	}
}

// Find returns the value stored under key.
func (t *BPlus) Find(ctx Ctx, key uint64) (uint64, bool, error) {
	path, err := t.descend(ctx, key, new(bpScratch))
	if err != nil || path == nil {
		return 0, false, err
	}
	leaf := path[len(path)-1]
	if leaf.idx < len(leaf.node.keys) && leaf.node.keys[leaf.idx] == key {
		return leaf.node.vals[leaf.idx], true, nil
	}
	return 0, false, nil
}

// Insert adds key→val; inserting an existing key is an error.
func (t *BPlus) Insert(ctx Ctx, key, val uint64) error {
	sc := t.scratch()
	rootW, err := t.rootOID()
	if err != nil {
		return err
	}
	if rootW.OID().IsNull() {
		o, err := ctx.Alloc(key, bpNodeSize)
		if err != nil {
			return err
		}
		nd := sc.node().init(o, true)
		nd.keys, nd.vals = append(nd.keys, key), append(nd.vals, val)
		if err := t.write(ctx, nd); err != nil {
			return err
		}
		return t.setRootOID(ctx, o)
	}
	path, err := t.descend(ctx, key, sc)
	if err != nil {
		return err
	}
	leaf := path[len(path)-1]
	nd := leaf.node
	if leaf.idx < len(nd.keys) && nd.keys[leaf.idx] == key {
		return fmt.Errorf("pds: duplicate b+tree key %d", key)
	}
	nd.keys = insertAt(nd.keys, leaf.idx, key)
	nd.vals = insertAt(nd.vals, leaf.idx, val)

	var carryKey uint64
	var carryKid oid.OID
	carrying := false
	for level := len(path) - 1; level >= 0; level-- {
		nd = path[level].node
		if carrying {
			i := path[level].idx
			nd.keys = insertAt(nd.keys, i, carryKey)
			nd.kids = insertOIDAt(nd.kids, i+1, carryKid)
			carrying = false
		}
		if len(nd.keys) <= bpMaxKeys {
			return t.write(ctx, nd)
		}
		rightOID, err := ctx.Alloc(nd.keys[len(nd.keys)/2], bpNodeSize)
		if err != nil {
			return err
		}
		right := sc.node().init(rightOID, nd.leaf)
		if nd.leaf {
			// Leaf split: right keeps the upper half; the first key
			// of the right leaf is copied up.
			mid := len(nd.keys) / 2
			right.keys = append(right.keys, nd.keys[mid:]...)
			right.vals = append(right.vals, nd.vals[mid:]...)
			right.next = nd.next
			nd.keys = nd.keys[:mid]
			nd.vals = nd.vals[:mid]
			nd.next = rightOID
			carryKey = right.keys[0]
		} else {
			// Internal split: the median moves up.
			mid := len(nd.keys) / 2
			carryKey = nd.keys[mid]
			right.keys = append(right.keys, nd.keys[mid+1:]...)
			right.kids = append(right.kids, nd.kids[mid+1:]...)
			nd.keys = nd.keys[:mid]
			nd.kids = nd.kids[:mid+1]
		}
		if err := t.write(ctx, nd); err != nil {
			return err
		}
		if err := t.write(ctx, right); err != nil {
			return err
		}
		carryKid = rightOID
		carrying = true
	}
	if carrying {
		oldRoot := path[0].node.oid
		newRootOID, err := ctx.Alloc(carryKey, bpNodeSize)
		if err != nil {
			return err
		}
		newRoot := sc.node().init(newRootOID, false)
		newRoot.keys, newRoot.kids = append(newRoot.keys, carryKey), append(newRoot.kids, oldRoot, carryKid)
		if err := t.write(ctx, newRoot); err != nil {
			return err
		}
		return t.setRootOID(ctx, newRootOID)
	}
	return nil
}

// Update overwrites the value under an existing key.
func (t *BPlus) Update(ctx Ctx, key, val uint64) (bool, error) {
	path, err := t.descend(ctx, key, t.scratch())
	if err != nil || path == nil {
		return false, err
	}
	leaf := path[len(path)-1]
	if leaf.idx >= len(leaf.node.keys) || leaf.node.keys[leaf.idx] != key {
		return false, nil
	}
	leaf.node.vals[leaf.idx] = val
	return true, t.write(ctx, leaf.node)
}

// Remove deletes key, rebalancing with borrow/merge, and reports whether it
// was present.
func (t *BPlus) Remove(ctx Ctx, key uint64) (bool, error) {
	path, err := t.descend(ctx, key, t.scratch())
	if err != nil || path == nil {
		return false, err
	}
	leafStep := path[len(path)-1]
	nd := leafStep.node
	if leafStep.idx >= len(nd.keys) || nd.keys[leafStep.idx] != key {
		return false, nil
	}
	nd.keys = removeAt(nd.keys, leafStep.idx)
	nd.vals = removeAt(nd.vals, leafStep.idx)
	if err := t.write(ctx, nd); err != nil {
		return false, err
	}

	// Rebalance upward.
	for level := len(path) - 1; level > 0; level-- {
		nd = path[level].node
		if len(nd.keys) >= bpMinKeys {
			return true, nil
		}
		parent := path[level-1].node
		ci := path[level-1].idx
		if err := t.fixUnderflow(ctx, parent, ci, nd); err != nil {
			return false, err
		}
	}
	// Root handling: an empty internal root is replaced by its child; an
	// empty leaf root empties the tree.
	root := path[0].node
	if len(root.keys) == 0 {
		if root.leaf {
			if err := t.setRootOID(ctx, oid.Null); err != nil {
				return false, err
			}
		} else {
			if err := t.setRootOID(ctx, root.kids[0]); err != nil {
				return false, err
			}
		}
		if err := ctx.Free(root.oid); err != nil {
			return false, err
		}
	}
	return true, nil
}

// fixUnderflow restores the fill of parent.kids[ci] (already read as child)
// by borrowing from a sibling or merging. parent is modified in place (the
// caller continues rebalancing with it). Siblings are decoded into the tree's
// scratch arena: only Remove comes here.
func (t *BPlus) fixUnderflow(ctx Ctx, parent *bpNode, ci int, child *bpNode) error {
	// Try borrowing from the left sibling.
	if ci > 0 {
		left := t.sc.node()
		if err := t.read(ctx, parent.kids[ci-1], isa.RZ, left); err != nil {
			return err
		}
		if len(left.keys) > bpMinKeys {
			if child.leaf {
				k := left.keys[len(left.keys)-1]
				v := left.vals[len(left.vals)-1]
				left.keys = left.keys[:len(left.keys)-1]
				left.vals = left.vals[:len(left.vals)-1]
				child.keys = insertAt(child.keys, 0, k)
				child.vals = insertAt(child.vals, 0, v)
				parent.keys[ci-1] = k
			} else {
				child.keys = insertAt(child.keys, 0, parent.keys[ci-1])
				child.kids = insertOIDAt(child.kids, 0, left.kids[len(left.kids)-1])
				parent.keys[ci-1] = left.keys[len(left.keys)-1]
				left.keys = left.keys[:len(left.keys)-1]
				left.kids = left.kids[:len(left.kids)-1]
			}
			if err := t.write(ctx, left); err != nil {
				return err
			}
			if err := t.write(ctx, child); err != nil {
				return err
			}
			return t.write(ctx, parent)
		}
	}
	// Try borrowing from the right sibling.
	if ci < len(parent.kids)-1 {
		right := t.sc.node()
		if err := t.read(ctx, parent.kids[ci+1], isa.RZ, right); err != nil {
			return err
		}
		if len(right.keys) > bpMinKeys {
			if child.leaf {
				k := right.keys[0]
				v := right.vals[0]
				right.keys = removeAt(right.keys, 0)
				right.vals = removeAt(right.vals, 0)
				child.keys = append(child.keys, k)
				child.vals = append(child.vals, v)
				parent.keys[ci] = right.keys[0]
			} else {
				child.keys = append(child.keys, parent.keys[ci])
				child.kids = append(child.kids, right.kids[0])
				parent.keys[ci] = right.keys[0]
				right.keys = removeAt(right.keys, 0)
				right.kids = right.kids[1:]
			}
			if err := t.write(ctx, right); err != nil {
				return err
			}
			if err := t.write(ctx, child); err != nil {
				return err
			}
			return t.write(ctx, parent)
		}
	}
	// Merge with a sibling (into the left node of the pair).
	var leftNode, rightNode *bpNode
	var sep int
	if ci > 0 {
		leftNode, rightNode, sep = t.sc.node(), child, ci-1
		if err := t.read(ctx, parent.kids[ci-1], isa.RZ, leftNode); err != nil {
			return err
		}
	} else {
		leftNode, rightNode, sep = child, t.sc.node(), ci
		if err := t.read(ctx, parent.kids[ci+1], isa.RZ, rightNode); err != nil {
			return err
		}
	}
	if leftNode.leaf {
		leftNode.keys = append(leftNode.keys, rightNode.keys...)
		leftNode.vals = append(leftNode.vals, rightNode.vals...)
		leftNode.next = rightNode.next
	} else {
		leftNode.keys = append(leftNode.keys, parent.keys[sep])
		leftNode.keys = append(leftNode.keys, rightNode.keys...)
		leftNode.kids = append(leftNode.kids, rightNode.kids...)
	}
	parent.keys = removeAt(parent.keys, sep)
	parent.kids = append(parent.kids[:sep+1], parent.kids[sep+2:]...)
	if err := t.write(ctx, leftNode); err != nil {
		return err
	}
	if err := t.write(ctx, parent); err != nil {
		return err
	}
	return ctx.Free(rightNode.oid)
}

// Scan returns up to max pairs with key >= from, in key order, following
// the leaf chain.
func (t *BPlus) Scan(ctx Ctx, from uint64, max int) ([]KV, error) {
	path, err := t.descend(ctx, from, new(bpScratch))
	if err != nil || path == nil {
		return nil, err
	}
	leaf := path[len(path)-1]
	nd, i := leaf.node, leaf.idx
	var out []KV
	for len(out) < max {
		for ; i < len(nd.keys) && len(out) < max; i++ {
			out = append(out, KV{nd.keys[i], nd.vals[i]})
		}
		if len(out) >= max || nd.next.IsNull() {
			break
		}
		if err = t.read(ctx, nd.next, isa.RZ, nd); err != nil {
			return nil, err
		}
		i = 0
	}
	return out, nil
}

// CheckInvariants verifies ordering, fill, uniform leaf depth and leaf-chain
// consistency, returning the number of keys (verification helper).
func (t *BPlus) CheckInvariants(ctx Ctx) (int, error) {
	rootW, err := t.rootOID()
	if err != nil {
		return 0, err
	}
	if rootW.OID().IsNull() {
		return 0, nil
	}
	leafDepth := -1
	var leaves []oid.OID
	count := 0
	var walk func(o oid.OID, depth int, lo, hi uint64, isRoot bool) error
	walk = func(o oid.OID, depth int, lo, hi uint64, isRoot bool) error {
		var nd bpNode
		if err := t.read(ctx, o, isa.RZ, &nd); err != nil {
			return err
		}
		if len(nd.keys) > bpMaxKeys {
			return fmt.Errorf("b+tree: node %v overfull", o)
		}
		if !isRoot && len(nd.keys) < bpMinKeys {
			return fmt.Errorf("b+tree: node %v underfull (%d keys)", o, len(nd.keys))
		}
		prev := lo
		for _, k := range nd.keys {
			if k < prev || k >= hi {
				return fmt.Errorf("b+tree: key %d out of range [%d,%d) in %v", k, lo, hi, o)
			}
			prev = k
		}
		if nd.leaf {
			count += len(nd.keys)
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("b+tree: leaves at depths %d and %d", leafDepth, depth)
			}
			leaves = append(leaves, o)
			return nil
		}
		if len(nd.kids) != len(nd.keys)+1 {
			return fmt.Errorf("b+tree: node %v has %d keys, %d children", o, len(nd.keys), len(nd.kids))
		}
		for i, c := range nd.kids {
			clo, chi := lo, hi
			if i > 0 {
				clo = nd.keys[i-1]
			}
			if i < len(nd.keys) {
				chi = nd.keys[i]
			}
			if err := walk(c, depth+1, clo, chi, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(rootW.OID(), 0, 0, ^uint64(0), true); err != nil {
		return 0, err
	}
	// The leaf chain must visit exactly the leaves, left to right.
	var nd bpNode
	if err := t.read(ctx, leaves[0], isa.RZ, &nd); err != nil {
		return 0, err
	}
	for i := 1; i < len(leaves); i++ {
		if nd.next != leaves[i] {
			return 0, fmt.Errorf("b+tree: leaf chain broken at %d: %v -> %v, want %v", i, nd.oid, nd.next, leaves[i])
		}
		if err := t.read(ctx, nd.next, isa.RZ, &nd); err != nil {
			return 0, err
		}
	}
	if !nd.next.IsNull() {
		return 0, fmt.Errorf("b+tree: last leaf has dangling next %v", nd.next)
	}
	return count, nil
}

func removeAt(s []uint64, i int) []uint64 {
	return append(s[:i], s[i+1:]...)
}
