package zcluster

import (
	"fmt"

	"zcache/internal/hash"
	"zcache/internal/workloads"
	"zcache/internal/zkv"
)

// NodeEquiv is one node's slice of the clustered equivalence replay.
type NodeEquiv struct {
	Node string
	zkv.EquivReport
}

// EquivReport is ReplayEquiv's outcome: the per-shard paper claim, checked
// per cluster node. Match holds only when every node's zkv store made
// bit-identical eviction decisions to its simulator-built reference.
type EquivReport struct {
	Workload string
	Nodes    int
	Accesses int
	PerNode  []NodeEquiv
	Match    bool
	Detail   string
}

// ReplayEquiv replays a workload through the consistent-hash ring onto
// nodes in-process one-shard stores, each paired with the simulator's
// L2-bank reference over its own derived seed, and compares eviction
// decisions per node (zkv.ReplayRouted). This is the clustered extension of
// zkv.ReplayEquiv: the ring partitions the key space exactly as sharding
// partitions it inside one store, so the per-shard equivalence claim
// survives the cluster layer — each node's slice of the traffic must
// reproduce its reference bit-for-bit.
//
// Routing is R=1 and in-process (no stamps, no network): what is under
// test here is placement plus the engine, not the transport.
func ReplayEquiv(w workloads.Workload, cfg zkv.Config, nodes, vnodes, accesses int) (EquivReport, error) {
	rep := EquivReport{Workload: w.Name, Nodes: nodes, Accesses: accesses}
	if nodes < 1 {
		return rep, fmt.Errorf("zcluster: need at least one node")
	}
	names := make([]string, nodes)
	seeds := make([]uint64, nodes)
	idxOf := make(map[string]int, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
		seeds[i] = hash.Mix64(cfg.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
		idxOf[names[i]] = i
	}
	ring, err := NewRing(names, vnodes)
	if err != nil {
		return rep, err
	}
	per, err := zkv.ReplayRouted(w, cfg, seeds,
		func(key []byte) int { return idxOf[ring.Primary(PointOf(key))] }, accesses)
	if err != nil {
		return rep, err
	}

	rep.Accesses, rep.Match = 0, true
	for i, ne := range per {
		rep.Accesses += ne.Accesses
		if !ne.Match && rep.Match {
			rep.Match = false
			rep.Detail = fmt.Sprintf("%s: %s", names[i], ne.Detail)
		}
		rep.PerNode = append(rep.PerNode, NodeEquiv{Node: names[i], EquivReport: ne})
	}
	return rep, nil
}

// ReplayEquivByName resolves a workload preset by name and replays it.
func ReplayEquivByName(name string, cfg zkv.Config, nodes, vnodes, accesses int) (EquivReport, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return EquivReport{}, fmt.Errorf("zcluster: unknown workload %q", name)
	}
	return ReplayEquiv(w, cfg, nodes, vnodes, accesses)
}
