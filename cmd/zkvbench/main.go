// Command zkvbench load-tests a running zcached server — or a cluster of
// them — and doubles as the CLI face of the simulator-equivalence harness.
//
// Load generation (default mode):
//
//	zkvbench -addr 127.0.0.1:7171 -clients 8 -ops 1000000 -get-frac 0.9
//
// drives a reproducible mixed GET/SET stream from -clients pipelining
// clients, reporting ops/s, hit rate, p50/p99/p999 per-op latency, and
// errors. The load harness is zcluster.RunLoad, and one server is a
// one-node ring to it: -addr A and -nodes A -topology ring run the same
// code and differ only in the cluster lines of the report. SET values
// carry the ring's 8-byte version stamp either way. With -writers N, N
// additional all-SET connections stay saturated for the whole window
// (contention mode): combined with -get-frac 1 the percentiles then
// measure pure readers while eviction walks and relocation chains are in
// flight.
//
// Cluster mode:
//
//	zkvbench -nodes 127.0.0.1:7171,127.0.0.1:7172,127.0.0.1:7173 \
//	    -topology replicated -oracle -join 127.0.0.1:7174 -join-after 50000
//
// routes the same stream through the client-side consistent-hash ring
// (internal/zcluster) over every listed node. -topology ring keeps
// one copy per key; replicated fans writes out R=2 and lets reads fail
// over. The report adds a per-node latency breakdown and a per-node health
// line parsed from each server's STATS text. With -join, the named node is
// added to the ring live once -join-after measured ops have completed —
// the full copy/flip/delta/forget reshard runs under load, and the run
// fails if any in-flight operation is dropped. -chaos applies per node:
// every node gets its own fault proxy with a derived seed.
//
// Chaos mode:
//
//	zkvbench -chaos 'latency:d=1ms,jitter=3ms,p=0.05;reset:p=0.002' \
//	    -chaos-seed 7 -oracle -op-timeout 2s -stall 2
//
// routes every connection through an in-process netchaos proxy injecting
// the given fault spec (see internal/netchaos). The client stack must
// absorb the faults: every transport error is classified (timeout, reset,
// busy, protocol), clipped operations are retried, and -oracle verifies
// every GET hit against its key-derived expected value. The final report
// breaks errors down by class next to the latency percentiles. -stall N
// additionally parks N silent connections on the server for the whole run
// (the slow-loris scenario its deadlines must absorb). -writers and -stall
// need a one-node ring.
//
// Equivalence replay:
//
//	zkvbench -equiv canneal -ways 4 -rows 1024 -levels 2
//
// replays a workload preset through a one-shard zkv store and through the
// simulator's cache construction, asserting bit-identical eviction victim
// sequences and hit/miss counts. With -equiv-nodes N, the replay instead
// routes the trace through an N-node consistent-hash ring onto per-node
// stores, checking the per-shard claim node by node. A divergence exits 2.
//
// Exit codes: 0 success, 1 usage error (bad flags, topology, chaos spec,
// policy, or workload), 2 benchmark failure: equivalence divergence, any
// wrong (oracle-mismatched) GET, any unclassified error, a dropped
// in-flight operation during a live join, a load config the harness
// rejects (such as -writers on a multi-node ring), or — outside chaos
// mode, where faults are expected — any error at all.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"zcache/internal/netchaos"
	"zcache/internal/zcluster"
	"zcache/internal/zkv"
	"zcache/internal/zkvproto"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("zkvbench", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7171", "zcached address (load mode)")
		clients  = fs.Int("clients", 4, "concurrent client connections")
		ops      = fs.Int("ops", 200000, "total operations across clients")
		keySpace = fs.Int("keys", 65536, "distinct key count")
		valBytes = fs.Int("val-bytes", 64, "SET payload size")
		getFrac  = fs.Float64("get-frac", 0.9, "fraction of GETs (rest are SETs)")
		pipeline = fs.Int("pipeline", 16, "requests per flush (1 = no pipelining)")
		seed     = fs.Uint64("seed", 1, "workload seed")
		writers  = fs.Int("writers", 0, "background all-SET connections kept saturated for the whole run (contention mode)")

		nodes     = fs.String("nodes", "", "comma-separated node addresses; non-empty switches to cluster mode")
		topology  = fs.String("topology", "ring", "cluster topology: ring (one copy per key) or replicated (R=2)")
		vnodes    = fs.Int("vnodes", 0, "virtual nodes per server on the hash ring (0 = default)")
		join      = fs.String("join", "", "node address added to the ring live, mid-run (cluster mode)")
		joinAfter = fs.Int("join-after", 0, "measured ops completed cluster-wide before the live join starts")
		joinPage  = fs.Int("join-page", 0, "migration page budget in bytes for the live join (0 = server default)")

		chaos     = fs.String("chaos", "", "netchaos fault spec; route all connections through an in-process fault proxy (e.g. 'latency:d=1ms,p=0.1;reset:p=0.01')")
		chaosSeed = fs.Uint64("chaos-seed", 1, "fault schedule seed (chaos mode)")
		oracle    = fs.Bool("oracle", false, "self-certifying values: verify every GET hit against its key-derived expected bytes")
		opTimeout = fs.Duration("op-timeout", 0, "per-burst deadline (default 2s in chaos mode, none otherwise)")
		stall     = fs.Int("stall", 0, "silent connections held open for the whole run (slow-loris pressure)")

		equiv      = fs.String("equiv", "", "equivalence mode: workload preset to replay (e.g. canneal)")
		equivNodes = fs.Int("equiv-nodes", 0, "replay through an N-node hash ring instead of one store (equiv mode)")
		ways       = fs.Int("ways", 4, "zcache ways (equiv mode)")
		rows       = fs.Uint64("rows", 1024, "rows per way (equiv mode)")
		levels     = fs.Int("levels", 2, "walk depth (equiv mode)")
		policy     = fs.String("policy", "lru", "replacement policy: lru or lru-full (equiv mode)")
		accesses   = fs.Int("accesses", 200000, "trace accesses to replay (equiv mode)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *equiv != "" {
		pol, err := zkv.ParsePolicy(*policy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zkvbench: %v\n", err)
			return 1
		}
		cfg := zkv.Config{Ways: *ways, Rows: *rows, Levels: *levels, Policy: pol, Seed: *seed}
		if *equivNodes > 0 {
			return runClusterEquiv(*equiv, cfg, *equivNodes, *vnodes, *accesses)
		}
		rep, err := zkv.ReplayEquivByName(*equiv, cfg, *accesses)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zkvbench: %v\n", err)
			return 1
		}
		fmt.Printf("workload %s: %d accesses, %d hits, %d misses, %d victims\n",
			rep.Workload, rep.Accesses, rep.Hits, rep.Misses, rep.Victims)
		if !rep.Match {
			fmt.Printf("DIVERGED: %s\n", rep.Detail)
			return 2
		}
		fmt.Println("MATCH: zkv and simulator agree bit-for-bit")
		return 0
	}

	// A single zcached is a one-node ring: -addr and -nodes drive the same
	// load path, and only the report's cluster lines tell them apart.
	clustered := *nodes != ""
	nodeList, replication := []string{*addr}, 1
	if clustered {
		nodeList = splitNodes(*nodes)
		switch *topology {
		case "ring":
		case "replicated":
			replication = 2
		default:
			fmt.Fprintf(os.Stderr, "zkvbench: -topology %q: want ring or replicated\n", *topology)
			return 1
		}
	}

	// Chaos mode: interpose a fault proxy in front of every node, each
	// with a decorrelated fault schedule, wired in through DialAddr so ring
	// membership keeps the real names. Faults are then expected;
	// correctness is judged on classification (no unclassified errors) and
	// the oracle (no wrong GETs), not on the error count.
	dial := make(map[string]string)
	var proxy *netchaos.Proxy
	if *chaos != "" {
		for i, node := range nodeList {
			spec, err := netchaos.ParseSpec(*chaos, *chaosSeed+uint64(i))
			if err != nil {
				fmt.Fprintf(os.Stderr, "zkvbench: -chaos: %v\n", err)
				return 1
			}
			proxy = netchaos.New(node, spec)
			if err := proxy.Start(""); err != nil {
				fmt.Fprintf(os.Stderr, "zkvbench: chaos proxy for %s: %v\n", node, err)
				return 1
			}
			defer proxy.Close()
			dial[node] = proxy.Addr()
			if clustered {
				fmt.Printf("chaos: %s through %s (seed %d)\n", node, proxy.Addr(), *chaosSeed+uint64(i))
			} else {
				fmt.Printf("chaos: proxying %s through %s with spec %q (seed %d)\n",
					node, proxy.Addr(), spec.String(), *chaosSeed)
			}
		}
		if *opTimeout == 0 {
			// Blackhole faults turn into hangs without a deadline; chaos
			// runs get one by default.
			*opTimeout = 2 * time.Second
		}
	}

	// MaxRetries covers the convenience ops the reshard controller and
	// read-repair issue (measured ops carry their own retry loop); a shed
	// MIGRATE during a live join must back off and retry, not abort.
	ccfg := zcluster.Config{
		Nodes: nodeList, VNodes: *vnodes, Replication: replication,
		DialAddr: dial, Options: zkvproto.Options{OpTimeout: *opTimeout, Seed: *seed, MaxRetries: 8},
	}
	if replication == 2 {
		ccfg.RepairEvery = 64
	}
	lcfg := zcluster.LoadConfig{
		Cluster: ccfg, Clients: *clients, Ops: *ops, KeySpace: *keySpace,
		ValBytes: *valBytes, GetFrac: *getFrac, Pipeline: *pipeline, Seed: *seed,
		OpTimeout: *opTimeout, Oracle: *oracle, Writers: *writers, Stall: *stall,
	}
	if clustered {
		lcfg.JoinNode, lcfg.JoinAfterOps, lcfg.JoinPageBytes = *join, *joinAfter, *joinPage
		fmt.Printf("cluster: %d nodes, topology %s, %d vnodes/node\n",
			len(nodeList), *topology, ringVNodes(*vnodes))
	}

	rep, err := zcluster.RunLoad(lcfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zkvbench: %v\n", err)
		return 2
	}
	hitRate := 0.0
	if rep.Gets > 0 {
		hitRate = float64(rep.Hits) / float64(rep.Gets)
	}
	fmt.Printf("%d ops in %s: %.0f ops/s (%d gets, %d sets, hit rate %.3f, %d errors)\n",
		rep.Ops, rep.Wall.Round(1000000), rep.OpsPerSec, rep.Gets, rep.Sets, hitRate, rep.Errors)
	fmt.Printf("latency: p50 %s  p99 %s  p999 %s  max %s\n",
		rep.P50, rep.P99, rep.P999, rep.PMax)
	if clustered {
		for _, node := range sortedNodes(rep.PerNode) {
			nl := rep.PerNode[node]
			fmt.Printf("node %s: %d ops  p50 %s  p99 %s  p999 %s  max %s\n",
				node, nl.Ops, nl.P50, nl.P99, nl.P999, nl.PMax)
		}
	}
	classified := rep.Timeouts + rep.Resets + rep.Busys + rep.ProtoErrors
	if classified+rep.Unclassified+rep.Retried+rep.Reconnects > 0 {
		fmt.Printf("faults: %d timeouts, %d resets, %d busy, %d protocol, %d unclassified; %d ambiguous mutations, %d ops retried, %d reconnects\n",
			rep.Timeouts, rep.Resets, rep.Busys, rep.ProtoErrors, rep.Unclassified,
			rep.Ambiguous, rep.Retried, rep.Reconnects)
	}
	if replication == 2 {
		fmt.Printf("replication: %d replica sets, %d failovers, %d replica errors\n",
			rep.ReplicaSets, rep.Failovers, rep.ReplicaErrors)
	}
	if *oracle {
		fmt.Printf("oracle: %d GET hits verified, %d wrong\n", rep.VerifiedGets, rep.WrongGets)
	}
	if *writers > 0 {
		fmt.Printf("contention: %d writers sustained %d sets (%.0f sets/s, %d errors) during the window\n",
			*writers, rep.WriterSets, float64(rep.WriterSets)/rep.Wall.Seconds(), rep.WriterErrors)
	}
	if r := rep.Reshard; r != nil {
		fmt.Printf("reshard: %s joined — %d arcs, %d entries copied in %d pages (%d bytes), delta %d/%d applied, %d arcs forgotten (%d entries), %d kept as replica\n",
			r.Node, r.Arcs, r.CopiedEntries, r.CopyPages, r.CopiedBytes,
			r.DeltaApplied, r.DeltaChecked, r.ForgottenArcs, r.Dropped, r.KeptAsReplica)
	}
	if clustered {
		printHealth(ccfg, rep.Reshard != nil, *join)
	} else if proxy != nil {
		fmt.Printf("chaos proxy: %s\n", proxy.Stats().Describe())
	}

	switch {
	case rep.WrongGets > 0:
		fmt.Fprintf(os.Stderr, "zkvbench: FAIL: %d wrong GETs (value oracle mismatch)\n", rep.WrongGets)
		return 2
	case rep.Unclassified > 0:
		fmt.Fprintf(os.Stderr, "zkvbench: FAIL: %d unclassified transport errors\n", rep.Unclassified)
		return 2
	case *chaos == "" && (rep.Errors > 0 || rep.WriterErrors > 0):
		return 2
	}
	return 0
}

func splitNodes(list string) []string {
	var out []string
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

func ringVNodes(v int) int {
	if v == 0 {
		return zcluster.DefaultVNodes
	}
	return v
}

func sortedNodes[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printHealth dials each node once more and renders one line per node from
// its typed STATS — the post-run cluster health view.
func printHealth(ccfg zcluster.Config, joined bool, joiner string) {
	if joined {
		ccfg.Nodes = append(append([]string(nil), ccfg.Nodes...), joiner)
	}
	ccfg.Router = nil
	cl, err := zcluster.New(ccfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zkvbench: health: %v\n", err)
		return
	}
	defer cl.Close()
	health := cl.Health()
	for _, node := range sortedNodes(health) {
		h := health[node]
		if h.Err != nil {
			fmt.Printf("health %s: UNREACHABLE (%v)\n", node, h.Err)
			continue
		}
		st := h.Stats
		fmt.Printf("health %s: %d/%d resident, hit rate %.3f, %d evictions, %d migrated out (%d pages), %d dropped by forget, %d shed\n",
			node, st.ResidentEntries, st.CapacityEntries, st.HitRate(), st.Evictions,
			st.MigrateEntries, st.MigratePages, st.ForgetDropped, st.ShedConns+st.ShedRequests)
	}
}

// runClusterEquiv is the -equiv-nodes path: the clustered replay of the
// per-shard equivalence claim.
func runClusterEquiv(workload string, cfg zkv.Config, nodes, vnodes, accesses int) int {
	rep, err := zcluster.ReplayEquivByName(workload, cfg, nodes, vnodes, accesses)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zkvbench: %v\n", err)
		return 1
	}
	fmt.Printf("workload %s across %d nodes: %d accesses\n", rep.Workload, rep.Nodes, rep.Accesses)
	for _, n := range rep.PerNode {
		verdict := "match"
		if !n.Match {
			verdict = "DIVERGED: " + n.Detail
		}
		fmt.Printf("node %s: %d accesses, %d hits, %d misses, %d victims — %s\n",
			n.Node, n.Accesses, n.Hits, n.Misses, n.Victims, verdict)
	}
	if !rep.Match {
		fmt.Printf("DIVERGED: %s\n", rep.Detail)
		return 2
	}
	fmt.Println("MATCH: every node's zkv store and simulator reference agree bit-for-bit")
	return 0
}
