package zcluster

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// samplePoints returns n deterministic ring points (the points of n
// synthetic keys), the key population every distribution assertion uses.
func samplePoints(n int) []uint64 {
	pts := make([]uint64, n)
	var key [8]byte
	for i := range pts {
		binary.BigEndian.PutUint64(key[:], uint64(i))
		pts[i] = PointOf(key[:])
	}
	return pts
}

func nodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("10.0.0.%d:7700", i+1)
	}
	return names
}

// TestRingDeterminism: the ring is a pure function of the node set — any
// input permutation, and any concurrent construction (GOMAXPROCS up), must
// route every key identically.
func TestRingDeterminism(t *testing.T) {
	nodes := nodeNames(5)
	base, err := NewRing(nodes, 64)
	if err != nil {
		t.Fatal(err)
	}
	pts := samplePoints(4096)

	perm := rand.New(rand.NewSource(42)).Perm(len(nodes))
	shuffled := make([]string, len(nodes))
	for i, j := range perm {
		shuffled[i] = nodes[j]
	}
	other, err := NewRing(shuffled, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if base.Primary(p) != other.Primary(p) {
			t.Fatalf("permuted ring routes point %#x differently", p)
		}
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		rings := make([]*Ring, 8)
		for i := range rings {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rings[i], _ = NewRing(nodes, 64)
			}(i)
		}
		wg.Wait()
		for i, r := range rings {
			for _, p := range pts[:256] {
				if r.Primary(p) != base.Primary(p) {
					t.Fatalf("GOMAXPROCS=%d ring %d diverges at %#x", procs, i, p)
				}
			}
		}
	}
}

// TestRingBalance pins the load-balance bound DefaultVNodes documents: at
// 128 vnodes, the busiest node carries at most 1.35x the mean key share
// for cluster sizes up to 16.
func TestRingBalance(t *testing.T) {
	pts := samplePoints(200000)
	for _, n := range []int{2, 3, 4, 8, 16} {
		nodes := nodeNames(n)
		r, err := NewRing(nodes, DefaultVNodes)
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[string]int, n)
		for _, p := range pts {
			counts[r.Primary(p)]++
		}
		mean := float64(len(pts)) / float64(n)
		for node, c := range counts {
			if ratio := float64(c) / mean; ratio > 1.35 {
				t.Errorf("%d nodes: %s carries %.2fx the mean share (%d keys)", n, node, ratio, c)
			}
		}
		if len(counts) != n {
			t.Errorf("%d nodes: only %d received keys", n, len(counts))
		}
	}
}

// TestRingMovement: adding or removing one node moves strictly less than
// 2/N of the key space, and every moved key moves to (or from) that node —
// the consistent-hashing contract that makes live resharding cheap.
func TestRingMovement(t *testing.T) {
	pts := samplePoints(100000)
	for _, n := range []int{3, 4, 8} {
		nodes := nodeNames(n)
		r, err := NewRing(nodes, DefaultVNodes)
		if err != nil {
			t.Fatal(err)
		}
		added := "10.0.1.99:7700"
		grown, err := r.WithNode(added)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, p := range pts {
			was, is := r.Primary(p), grown.Primary(p)
			if was != is {
				moved++
				if is != added {
					t.Fatalf("%d nodes: key moved to %s, not the added node", n, is)
				}
			}
		}
		if frac, bound := float64(moved)/float64(len(pts)), 2.0/float64(n+1); frac >= bound {
			t.Errorf("%d nodes: add moved %.3f of keys, want < %.3f", n, frac, bound)
		}
		if moved == 0 {
			t.Errorf("%d nodes: add moved nothing", n)
		}

		shrunk, err := grown.WithoutNode(added)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts[:4096] {
			if shrunk.Primary(p) != r.Primary(p) {
				t.Fatalf("%d nodes: add+remove is not identity at %#x", n, p)
			}
		}
	}
}

// TestArcsMatchOwnership: a node's arcs are exactly the key space routed
// to it, and each key lies in exactly one node's arc set.
func TestArcsMatchOwnership(t *testing.T) {
	r, err := NewRing(nodeNames(4), 32)
	if err != nil {
		t.Fatal(err)
	}
	arcs := make(map[string][]Arc)
	total := 0
	for _, node := range r.Nodes() {
		arcs[node] = r.ArcsOwnedBy(node)
		total += len(arcs[node])
	}
	if total != 4*32 {
		t.Fatalf("%d arcs, want one per vnode (%d)", total, 4*32)
	}
	for _, p := range samplePoints(8192) {
		owner := r.Primary(p)
		holders := 0
		for node, as := range arcs {
			for _, a := range as {
				if a.Contains(p) {
					holders++
					if node != owner {
						t.Fatalf("point %#x owned by %s but inside %s's arc", p, owner, node)
					}
				}
			}
		}
		if holders != 1 {
			t.Fatalf("point %#x inside %d arcs, want 1", p, holders)
		}
	}
}

func TestPrimaryReplica(t *testing.T) {
	single, err := NewRing(nodeNames(1), 16)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewRing(nodeNames(3), 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range samplePoints(1024) {
		if pri, rep := single.PrimaryReplica(p); rep != pri || pri != single.Primary(p) {
			t.Fatalf("one-node ring: PrimaryReplica = (%s, %s), Primary = %s", pri, rep, single.Primary(p))
		}
		pri, rep := multi.PrimaryReplica(p)
		if rep == pri {
			t.Fatalf("three-node ring: replica equals primary at %#x", p)
		}
		if pri != multi.Primary(p) {
			t.Fatalf("PrimaryReplica and Primary disagree at %#x", p)
		}
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil, 8); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 8); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := NewRing([]string{""}, 8); err == nil {
		t.Error("empty node name accepted")
	}
	r, _ := NewRing([]string{"a", "b"}, 8)
	if _, err := r.WithoutNode("zzz"); err == nil {
		t.Error("removing an absent node accepted")
	}
	if _, err := r.WithNode("a"); err == nil {
		t.Error("re-adding a member accepted")
	}
}

// FuzzRing fuzzes membership and key bytes: every constructed ring must
// route each key to exactly one node, agree with an identically-built
// ring, keep arcs consistent with ownership, and keep key movement on a
// node add bounded.
func FuzzRing(f *testing.F) {
	f.Add(uint64(1), 3, 16, []byte("some-key"))
	f.Add(uint64(99), 1, 1, []byte{0})
	f.Add(uint64(7), 8, 128, []byte("another key entirely"))
	f.Fuzz(func(t *testing.T, seed uint64, n, vnodes int, key []byte) {
		n = 1 + (n&0x7fffffff)%8
		vnodes = 1 + (vnodes&0x7fffffff)%128
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("n%x-%d", seed, i)
		}
		r1, err := NewRing(nodes, vnodes)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := NewRing(nodes, vnodes)
		if err != nil {
			t.Fatal(err)
		}
		p := PointOf(key)
		owner := r1.Primary(p)
		if got := r2.Primary(p); got != owner {
			t.Fatalf("identical rings route %#x to %s and %s", p, owner, got)
		}
		holders := 0
		for _, node := range nodes {
			for _, a := range r1.ArcsOwnedBy(node) {
				if a.Contains(p) {
					holders++
					if node != owner {
						t.Fatalf("arc/ownership mismatch at %#x", p)
					}
				}
			}
		}
		if holders != 1 {
			t.Fatalf("point %#x inside %d arcs", p, holders)
		}
		pri, rep := r1.PrimaryReplica(p)
		if pri != owner || (n > 1 && rep == pri) || (n == 1 && rep != pri) {
			t.Fatalf("replica contract violated: n=%d pri=%s rep=%s", n, pri, rep)
		}
		grown, err := r1.WithNode("joiner")
		if err != nil {
			t.Fatal(err)
		}
		if got := grown.Primary(p); got != owner && got != "joiner" {
			t.Fatalf("add moved %#x to %s, not the joiner", p, got)
		}
	})
}
