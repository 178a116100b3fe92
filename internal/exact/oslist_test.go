package exact

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestOSListBasics(t *testing.T) {
	l := newOSList()
	for i := uint64(1); i <= 1000; i++ {
		l.InsertMax(i)
	}
	if l.Len() != 1000 {
		t.Fatalf("Len = %d", l.Len())
	}
	if got := l.CountGreater(500); got != 500 {
		t.Errorf("CountGreater(500) = %d, want 500", got)
	}
	if got := l.CountGreater(0); got != 1000 {
		t.Errorf("CountGreater(0) = %d, want 1000", got)
	}
	if got := l.CountGreater(1000); got != 0 {
		t.Errorf("CountGreater(1000) = %d, want 0", got)
	}
	if !l.Delete(500) {
		t.Error("Delete(500) not found")
	}
	if l.Delete(500) {
		t.Error("double Delete(500) found")
	}
	if got := l.CountGreater(499); got != 500 {
		t.Errorf("CountGreater(499) after delete = %d, want 500", got)
	}
	if l.Len() != 999 {
		t.Errorf("Len after delete = %d", l.Len())
	}
}

func TestOSListRebuildReclaimsMemory(t *testing.T) {
	l := newOSList()
	const n = 100000
	for i := uint64(1); i <= n; i++ {
		l.InsertMax(i)
		if i > 64 {
			l.Delete(i - 64)
		}
	}
	if l.Len() != 64 {
		t.Fatalf("Len = %d, want 64", l.Len())
	}
	// Live set is 64; storage must be far below the 100K inserts.
	if l.StateBytes() > 64*1024 {
		t.Errorf("StateBytes = %d after rebuilds, want small", l.StateBytes())
	}
}

// TestOSListMatchesTreap drives both implementations with the same
// random Olken-like workload and checks every query result agrees.
func TestOSListMatchesTreap(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		l := newOSList()
		tr := newOrderTreap(seed ^ 1)
		live := []uint64{}
		next := uint64(1)
		for op := 0; op < 2000; op++ {
			switch {
			case len(live) == 0 || rng.Float64() < 0.5:
				l.InsertMax(next)
				tr.Insert(next)
				live = append(live, next)
				next += 1 + rng.Uint64n(3)
			default:
				i := rng.Intn(len(live))
				k := live[i]
				live = append(live[:i], live[i+1:]...)
				if l.Delete(k) != tr.Delete(k) {
					return false
				}
			}
			q := rng.Uint64n(next + 2)
			if l.CountGreater(q) != tr.CountGreater(q) {
				return false
			}
			if uint64(l.Len()) != uint64(tr.Len()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkOSListOlkenPattern(b *testing.B) {
	l := newOSList()
	rng := stats.NewRNG(1)
	// Steady-state live set of ~1M keys, like a big-footprint workload.
	keys := make([]uint64, 0, 1<<20)
	next := uint64(1)
	for i := 0; i < 1<<20; i++ {
		l.InsertMax(next)
		keys = append(keys, next)
		next++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(len(keys))
		old := keys[j]
		l.CountGreater(old)
		l.Delete(old)
		l.InsertMax(next)
		keys[j] = next
		next++
	}
}

func BenchmarkTreapOlkenPattern(b *testing.B) {
	tr := newOrderTreap(1)
	rng := stats.NewRNG(1)
	keys := make([]uint64, 0, 1<<20)
	next := uint64(1)
	for i := 0; i < 1<<20; i++ {
		tr.Insert(next)
		keys = append(keys, next)
		next++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(len(keys))
		old := keys[j]
		tr.CountGreater(old)
		tr.Delete(old)
		tr.Insert(next)
		keys[j] = next
		next++
	}
}

// orderTreap is an order-statistics treap over uint64 keys (access
// timestamps). Olken's reuse-distance algorithm needs exactly three
// operations, all O(log m) for m live keys: insert a new (strictly
// larger) key, delete an arbitrary key, and count the keys greater than
// a given key.
//
// Nodes live in a flat slice with a free list, which keeps the structure
// compact, allocation-light, and makes its memory footprint directly
// measurable for the memory-overhead experiments.
type orderTreap struct {
	nodes []treapNode
	free  []int32
	root  int32
	rng   *stats.RNG
}

type treapNode struct {
	key         uint64
	pri         uint32
	left, right int32
	size        uint32
}

const nilNode = int32(-1)

func newOrderTreap(seed uint64) *orderTreap {
	return &orderTreap{root: nilNode, rng: stats.NewRNG(seed)}
}

// Len returns the number of live keys.
func (t *orderTreap) Len() int {
	return int(t.size(t.root))
}

// StateBytes approximates the heap bytes held by the treap.
func (t *orderTreap) StateBytes() uint64 {
	const nodeBytes = 8 + 4 + 4 + 4 + 4 // key, pri, left, right, size
	return uint64(cap(t.nodes))*nodeBytes + uint64(cap(t.free))*4
}

func (t *orderTreap) size(n int32) uint32 {
	if n == nilNode {
		return 0
	}
	return t.nodes[n].size
}

func (t *orderTreap) fix(n int32) {
	t.nodes[n].size = 1 + t.size(t.nodes[n].left) + t.size(t.nodes[n].right)
}

func (t *orderTreap) alloc(key uint64) int32 {
	var n int32
	if len(t.free) > 0 {
		n = t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
	} else {
		t.nodes = append(t.nodes, treapNode{})
		n = int32(len(t.nodes) - 1)
	}
	t.nodes[n] = treapNode{key: key, pri: uint32(t.rng.Uint64()), left: nilNode, right: nilNode, size: 1}
	return n
}

// Insert adds key. Keys must be unique (timestamps are).
func (t *orderTreap) Insert(key uint64) {
	t.root = t.insert(t.root, key)
}

func (t *orderTreap) insert(n int32, key uint64) int32 {
	if n == nilNode {
		return t.alloc(key)
	}
	if key < t.nodes[n].key {
		t.nodes[n].left = t.insert(t.nodes[n].left, key)
		if t.nodes[t.nodes[n].left].pri > t.nodes[n].pri {
			n = t.rotateRight(n)
		}
	} else {
		t.nodes[n].right = t.insert(t.nodes[n].right, key)
		if t.nodes[t.nodes[n].right].pri > t.nodes[n].pri {
			n = t.rotateLeft(n)
		}
	}
	t.fix(n)
	return n
}

func (t *orderTreap) rotateRight(n int32) int32 {
	l := t.nodes[n].left
	t.nodes[n].left = t.nodes[l].right
	t.nodes[l].right = n
	t.fix(n)
	t.fix(l)
	return l
}

func (t *orderTreap) rotateLeft(n int32) int32 {
	r := t.nodes[n].right
	t.nodes[n].right = t.nodes[r].left
	t.nodes[r].left = n
	t.fix(n)
	t.fix(r)
	return r
}

// Delete removes key if present and reports whether it was found.
func (t *orderTreap) Delete(key uint64) bool {
	var found bool
	t.root, found = t.delete(t.root, key)
	return found
}

func (t *orderTreap) delete(n int32, key uint64) (int32, bool) {
	if n == nilNode {
		return nilNode, false
	}
	var found bool
	switch {
	case key < t.nodes[n].key:
		t.nodes[n].left, found = t.delete(t.nodes[n].left, key)
	case key > t.nodes[n].key:
		t.nodes[n].right, found = t.delete(t.nodes[n].right, key)
	default:
		// Rotate n down until it is a leaf, then free it.
		l, r := t.nodes[n].left, t.nodes[n].right
		switch {
		case l == nilNode && r == nilNode:
			t.free = append(t.free, n)
			return nilNode, true
		case l == nilNode || (r != nilNode && t.nodes[r].pri > t.nodes[l].pri):
			n = t.rotateLeft(n)
			t.nodes[n].left, found = t.delete(t.nodes[n].left, key)
		default:
			n = t.rotateRight(n)
			t.nodes[n].right, found = t.delete(t.nodes[n].right, key)
		}
	}
	t.fix(n)
	return n, found
}

// CountGreater returns the number of keys strictly greater than key.
func (t *orderTreap) CountGreater(key uint64) uint64 {
	var count uint64
	n := t.root
	for n != nilNode {
		if t.nodes[n].key > key {
			count += 1 + uint64(t.size(t.nodes[n].right))
			n = t.nodes[n].left
		} else {
			n = t.nodes[n].right
		}
	}
	return count
}
