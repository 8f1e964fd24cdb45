// Package zcluster is the client-side cluster layer over zcached: a
// consistent-hash ring of independent servers, optional R=2 replication
// with version-stamped read-repair, and a live resharding controller that
// hands key ranges to a new node while both sides keep serving.
//
// There is no cluster state on the servers. Each zcached node is the same
// single-node server it always was; membership, routing, replication, and
// repair live entirely in the client, the way memcached deployments work.
// What the servers do understand is the MIGRATE/FORGET pair of verbs
// (zkvproto), which is exactly enough for a client-driven controller to
// move an arc of the ring from one node to another without a coordinator.
package zcluster

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"zcache/internal/hash"
	"zcache/internal/zkvproto"
)

// DefaultVNodes is the virtual-node count per server. 128 points per node
// keeps the load imbalance modest (max/mean arc mass stays under ~1.35 for
// small clusters; TestRingBalance pins the bound) while an add/remove still
// moves only ~1/N of the key space.
const DefaultVNodes = 128

// PointOf maps a key to its position in ring-point space. It is the
// composition the whole cluster agrees on by construction: the store's key
// fingerprint (hash.Bytes64) pushed through zkvproto.RingPoint, the same
// function a server's MIGRATE/FORGET range scan applies to its resident
// fingerprints.
func PointOf(key []byte) uint64 { return zkvproto.RingPoint(hash.Bytes64(key)) }

// vpoint is one virtual node: a position on the ring owned by a node.
type vpoint struct {
	pt   uint64
	node int32 // index into Ring.nodes
}

// Ring is an immutable consistent-hash ring: a sorted point set with
// successor lookup. A key with point p is owned by the first virtual node
// at or clockwise of p; equivalently, the virtual node at point P owns the
// arc (predecessor(P), P]. Rings are pure functions of the node *set* (and
// the vnode count) — input order does not matter — so any two clients that
// agree on membership route identically with no coordination.
type Ring struct {
	nodes  []string // sorted, unique
	vnodes int
	points []vpoint // sorted by (pt, node)
}

// NewRing builds a ring over nodes with vnodes virtual nodes per node
// (DefaultVNodes when <= 0).
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("zcluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := slices.Clone(nodes)
	slices.Sort(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("zcluster: empty node name")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("zcluster: duplicate node %q", n)
		}
	}
	r := &Ring{nodes: sorted, vnodes: vnodes, points: make([]vpoint, 0, len(sorted)*vnodes)}
	for ni, n := range sorted {
		base := hash.Bytes64([]byte(n))
		for v := 0; v < vnodes; v++ {
			pt := hash.Mix64(base ^ hash.Mix64((uint64(v)+1)*0x9e3779b97f4a7c15))
			r.points = append(r.points, vpoint{pt: pt, node: int32(ni)})
		}
	}
	// The tiebreak on node index makes the order total, so two point
	// collisions (astronomically unlikely, but free to handle) cannot make
	// routing depend on sort stability.
	slices.SortFunc(r.points, func(a, b vpoint) int {
		switch {
		case a.pt < b.pt:
			return -1
		case a.pt > b.pt:
			return 1
		default:
			return int(a.node) - int(b.node)
		}
	})
	return r, nil
}

// ownerIdx is the successor search: the first point at or clockwise of p.
func (r *Ring) ownerIdx(p uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pt >= p })
	if i == len(r.points) {
		i = 0 // wrap: p is past the last point, the first point owns it
	}
	return i
}

// Primary returns the node owning ring point p.
func (r *Ring) Primary(p uint64) string {
	return r.nodes[r.points[r.ownerIdx(p)].node]
}

// PrimaryReplica returns the owner of p and its replica — the next
// *distinct* node clockwise, so a node's replica set is spread across the
// cluster rather than pinned to one neighbor. In a one-node ring the
// replica equals the primary (callers treat that as "no replica").
func (r *Ring) PrimaryReplica(p uint64) (primary, replica string) {
	if len(r.nodes) == 1 {
		// The one node owns every point; the scan below would visit every
		// vnode looking for a replica it cannot find.
		return r.nodes[0], r.nodes[0]
	}
	i := r.ownerIdx(p)
	pn := r.points[i].node
	primary = r.nodes[pn]
	for j := 1; j < len(r.points); j++ {
		if q := r.points[(i+j)%len(r.points)]; q.node != pn {
			return primary, r.nodes[q.node]
		}
	}
	return primary, primary
}

// Nodes returns the ring's membership (sorted copy).
func (r *Ring) Nodes() []string { return slices.Clone(r.nodes) }

// VNodes is the per-node virtual node count.
func (r *Ring) VNodes() int { return r.vnodes }

// HasNode reports whether node is in the ring.
func (r *Ring) HasNode(node string) bool {
	_, ok := slices.BinarySearch(r.nodes, node)
	return ok
}

// WithNode returns a new ring with node added. Because a ring is a pure
// function of its node set, this equals NewRing over the extended set —
// the unmoved arcs are bit-identical.
func (r *Ring) WithNode(node string) (*Ring, error) {
	return NewRing(append(slices.Clone(r.nodes), node), r.vnodes)
}

// WithoutNode returns a new ring with node removed.
func (r *Ring) WithoutNode(node string) (*Ring, error) {
	rest := slices.DeleteFunc(slices.Clone(r.nodes), func(n string) bool { return n == node })
	if len(rest) == len(r.nodes) {
		return nil, fmt.Errorf("zcluster: node %q not in ring", node)
	}
	return NewRing(rest, r.vnodes)
}

// Arc is a half-open range (Start, End] of ring-point space; Start == End
// denotes the full circle. It is the unit of ownership and of migration.
type Arc struct{ Start, End uint64 }

// Contains reports whether ring point p lies in the arc.
func (a Arc) Contains(p uint64) bool { return zkvproto.InArc(p, a.Start, a.End) }

// ArcsOwnedBy returns the arcs node owns, one per virtual node:
// (predecessor point, vnode point]. Their union is exactly the key space
// routed to node; a resharding controller migrates precisely these.
func (r *Ring) ArcsOwnedBy(node string) []Arc {
	var arcs []Arc
	n := len(r.points)
	for i, p := range r.points {
		if r.nodes[p.node] != node {
			continue
		}
		arcs = append(arcs, Arc{Start: r.points[(i-1+n)%n].pt, End: p.pt})
	}
	return arcs
}

// Router is the one mutable cell in the cluster: an atomically swappable
// ring pointer shared by every client goroutine. Resharding builds the new
// ring off to the side and publishes it with one Swap — readers never see
// a half-updated topology, which is what makes the flip safe under
// pipelined load.
type Router struct {
	ring atomic.Pointer[Ring]
}

// NewRouter wraps r in a router.
func NewRouter(r *Ring) *Router {
	ro := &Router{}
	ro.ring.Store(r)
	return ro
}

// Ring returns the current ring (never nil).
func (ro *Router) Ring() *Ring { return ro.ring.Load() }

// Swap atomically publishes r and returns the previous ring.
func (ro *Router) Swap(r *Ring) *Ring { return ro.ring.Swap(r) }
