package zcluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"zcache/internal/netchaos"
	"zcache/internal/zkv"
	"zcache/internal/zkvproto"
)

// startNode boots one in-process zcached node on an ephemeral port and
// returns its address. Cleanup shuts it down.
func startNode(t *testing.T, seed uint64) string {
	t.Helper()
	store, err := zkv.Open(zkv.Config{Shards: 2, Ways: 4, Rows: 512, Levels: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := zkv.NewServer(store, zkv.ServerConfig{})
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("node shutdown: %v", err)
		}
		<-errc
	})
	return ln.Addr().String()
}

func startNodes(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = startNode(t, uint64(i)+100)
	}
	return addrs
}

func testKey(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

// TestClusterRoutedOps: basic routed traffic with R=2 — every key written
// through the ring reads back through the ring, writes land on more than
// one node, and each key is resident on both its primary and replica.
func TestClusterRoutedOps(t *testing.T) {
	addrs := startNodes(t, 3)
	c, err := New(Config{Nodes: addrs, Replication: 2, VNodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 200
	for i := 0; i < keys; i++ {
		if err := c.Set(testKey(i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	for i := 0; i < keys; i++ {
		got, ok, err := c.Get(testKey(i), nil)
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf("val-%d", i); string(got) != want {
			t.Fatalf("get %d: %q, want %q", i, got, want)
		}
	}
	if st := c.Stats(); st.ReplicaErrors != 0 || st.Failovers != 0 {
		t.Fatalf("healthy cluster counted faults: %+v", st)
	}

	// Both copies exist: a raw client on the replica must hold each key.
	ring := c.Router().Ring()
	raw := make(map[string]*zkvproto.Client)
	for _, a := range addrs {
		cl, err := zkvproto.Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		raw[a] = cl
	}
	nodesHit := make(map[string]bool)
	for i := 0; i < keys; i++ {
		key := testKey(i)
		pri, rep := ring.PrimaryReplica(PointOf(key))
		nodesHit[pri] = true
		for _, node := range []string{pri, rep} {
			if _, ok, err := raw[node].Get(key, nil); err != nil || !ok {
				t.Fatalf("key %d absent on %s (ok=%v err=%v)", i, node, ok, err)
			}
		}
	}
	if len(nodesHit) < 2 {
		t.Fatalf("200 keys all routed to %d node(s)", len(nodesHit))
	}

	// Del removes both copies.
	if ok, err := c.Del(testKey(0)); err != nil || !ok {
		t.Fatalf("del: ok=%v err=%v", ok, err)
	}
	pri, rep := ring.PrimaryReplica(PointOf(testKey(0)))
	for _, node := range []string{pri, rep} {
		if _, ok, _ := raw[node].Get(testKey(0), nil); ok {
			t.Fatalf("deleted key still on %s", node)
		}
	}

	// Health reaches every member.
	for node, h := range c.Health() {
		if h.Err != nil {
			t.Fatalf("health %s: %v", node, h.Err)
		}
		if !h.Stats.Ready {
			t.Fatalf("health %s: not ready", node)
		}
	}
}

// TestClusterReadRepair: both repair triggers. Killing the primary's copy
// must be healed from the replica on a miss; understamping the replica
// must be healed from the primary on a sampled hit.
func TestClusterReadRepair(t *testing.T) {
	addrs := startNodes(t, 3)
	c, err := New(Config{Nodes: addrs, Replication: 2, VNodes: 32, RepairEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := []byte("repair-me")
	if err := c.Set(key, []byte("healthy")); err != nil {
		t.Fatal(err)
	}
	ring := c.Router().Ring()
	pri, rep := ring.PrimaryReplica(PointOf(key))
	priRaw, err := zkvproto.Dial(c.cfg.dialAddr(pri))
	if err != nil {
		t.Fatal(err)
	}
	defer priRaw.Close()
	repRaw, err := zkvproto.Dial(c.cfg.dialAddr(rep))
	if err != nil {
		t.Fatal(err)
	}
	defer repRaw.Close()

	// Trigger 1: primary loses the key (restart, eviction, handoff).
	if ok, err := priRaw.Del(key); err != nil || !ok {
		t.Fatalf("tamper del: ok=%v err=%v", ok, err)
	}
	got, ok, err := c.Get(key, nil)
	if err != nil || !ok || string(got) != "healthy" {
		t.Fatalf("get after primary loss: %q ok=%v err=%v", got, ok, err)
	}
	if st := c.Stats(); st.Repairs == 0 {
		t.Fatal("replica served a lost key but no repair was counted")
	}
	if v, ok, _ := priRaw.Get(key, nil); !ok {
		t.Fatal("read-repair did not restore the primary copy")
	} else if _, payload, _ := zkvproto.SplitStamped(v); string(payload) != "healthy" {
		t.Fatalf("primary repaired with %q", payload)
	}

	// Trigger 2: the replica holds a stale version; a sampled hit
	// (RepairEvery=1 samples every hit) must rewrite it.
	stale := zkvproto.AppendStamped(nil, 0, []byte("stale"))
	if err := repRaw.Set(key, stale); err != nil {
		t.Fatal(err)
	}
	before := c.Stats().Repairs
	if got, ok, err := c.Get(key, nil); err != nil || !ok || string(got) != "healthy" {
		t.Fatalf("sampled get: %q ok=%v err=%v", got, ok, err)
	}
	if c.Stats().Repairs <= before {
		t.Fatal("stale replica survived a sampled cross-check")
	}
	if v, ok, _ := repRaw.Get(key, nil); !ok {
		t.Fatal("replica lost the key instead of being repaired")
	} else if _, payload, _ := zkvproto.SplitStamped(v); string(payload) != "healthy" {
		t.Fatalf("replica still stale: %q", payload)
	}
}

// TestClusterFailoverAsymmetric: an asymmetric partition (replies from the
// primary blackholed, requests still delivered) must not lose reads — the
// client times out on the primary and serves from the replica.
func TestClusterFailoverAsymmetric(t *testing.T) {
	addrs := startNodes(t, 3)

	// Healthy client seeds the data.
	seeder, err := New(Config{Nodes: addrs, Replication: 2, VNodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("partitioned-key")
	if err := seeder.Set(key, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	ring := seeder.Router().Ring()
	pri, _ := ring.PrimaryReplica(PointOf(key))
	seeder.Close()

	// One-way partition in front of the key's primary only.
	spec, err := netchaos.ParseSpec("drop:p=1,dir=s2c", 7)
	if err != nil {
		t.Fatal(err)
	}
	proxy := netchaos.New(pri, spec)
	if err := proxy.Start(""); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c, err := New(Config{
		Nodes:       addrs,
		Replication: 2,
		VNodes:      32,
		DialAddr:    map[string]string{pri: proxy.Addr()},
		Options:     zkvproto.Options{OpTimeout: 150 * time.Millisecond, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got, ok, err := c.Get(key, nil)
	if err != nil || !ok || string(got) != "survives" {
		t.Fatalf("get under partition: %q ok=%v err=%v", got, ok, err)
	}
	if st := c.Stats(); st.Failovers == 0 {
		t.Fatalf("read served with no failover counted: %+v", st)
	}
	if drops := proxy.Stats().Drops; drops == 0 {
		t.Fatal("proxy injected no partition; test is vacuous")
	}
}

// TestClusterLiveReshard: sustained pipelined oracle load while a fourth
// node joins mid-run. Zero wrong responses, zero unclassified errors, no
// dropped in-flight operations (completed == requested is enforced inside
// RunLoad), and the handed-off arcs end up served by the new node.
func TestClusterLiveReshard(t *testing.T) {
	addrs := startNodes(t, 4)
	initial, joiner := addrs[:3], addrs[3]

	ring, err := NewRing(initial, 32)
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouter(ring)
	cfg := LoadConfig{
		Cluster:      Config{Router: router, VNodes: 32},
		Clients:      3,
		Ops:          60000,
		KeySpace:     4096,
		ValBytes:     32,
		GetFrac:      0.8,
		Pipeline:     16,
		Seed:         99,
		OpTimeout:    2 * time.Second,
		Oracle:       true,
		JoinNode:     joiner,
		JoinAfterOps: 3000,
	}
	rep, err := RunLoad(cfg)
	if err != nil {
		t.Fatalf("load: %v (report %+v)", err, rep)
	}
	if rep.Ops != cfg.Ops {
		t.Fatalf("completed %d of %d ops", rep.Ops, cfg.Ops)
	}
	if rep.WrongGets != 0 {
		t.Fatalf("%d wrong GETs during live reshard", rep.WrongGets)
	}
	if rep.Unclassified != 0 {
		t.Fatalf("%d unclassified errors", rep.Unclassified)
	}
	if rep.Reshard == nil {
		t.Fatal("no reshard report")
	}
	if rep.Reshard.Arcs == 0 || rep.Reshard.CopiedEntries == 0 {
		t.Fatalf("reshard moved nothing: %+v", rep.Reshard)
	}
	if rep.Reshard.ForgottenArcs+rep.Reshard.KeptAsReplica != rep.Reshard.Arcs {
		t.Fatalf("arcs unaccounted for: %+v", rep.Reshard)
	}
	if len(rep.PerNode) < 3 {
		t.Fatalf("per-node breakdown covers %d nodes", len(rep.PerNode))
	}
	if !router.Ring().HasNode(joiner) {
		t.Fatal("router never flipped to the grown ring")
	}
	if _, ok := rep.PerNode[joiner]; !ok {
		// The measured run can outpace the drain on a fast machine; the
		// grown router must still serve the joiner on the next load.
		after, err := RunLoad(LoadConfig{
			Cluster: Config{Router: router, VNodes: 32},
			Clients: 2, Ops: 4000, KeySpace: cfg.KeySpace, ValBytes: cfg.ValBytes,
			GetFrac: 0.8, Pipeline: 8, Seed: 100, OpTimeout: 2 * time.Second, Oracle: true,
		})
		if err != nil {
			t.Fatalf("post-join load: %v", err)
		}
		if after.WrongGets != 0 {
			t.Fatalf("%d wrong GETs after join", after.WrongGets)
		}
		if _, ok := after.PerNode[joiner]; !ok {
			t.Fatal("joiner serves no traffic on the grown ring")
		}
	}

	// The joiner now owns its arcs: keys routed to it must be resident
	// there with oracle-correct payloads.
	grown := router.Ring()
	raw, err := zkvproto.Dial(joiner)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	checked, expect := 0, make([]byte, cfg.ValBytes)
	key := make([]byte, 8)
	for k := 0; k < cfg.KeySpace && checked < 50; k++ {
		putKey(key, uint64(k))
		if grown.Primary(PointOf(key)) != joiner {
			continue
		}
		v, ok, err := raw.Get(key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue // never written, or evicted under pressure
		}
		checked++
		oracleFill(expect, uint64(k))
		_, payload := versionOf(v)
		if !bytes.Equal(payload, expect) {
			t.Fatalf("joiner serves wrong bytes for key %d", k)
		}
	}
	if checked == 0 {
		t.Fatal("no migrated keys found on the joiner; handoff check is vacuous")
	}
	t.Logf("reshard: %+v; verified %d joiner-resident keys", rep.Reshard, checked)
}

// putKey encodes the load harness's key form (8-byte big-endian).
func putKey(dst []byte, k uint64) {
	for i := 7; i >= 0; i-- {
		dst[i] = byte(k)
		k >>= 8
	}
}

// TestClusterLoadReplicated: R=2 load with chaos on the wire — classified
// faults only, zero wrong GETs, replica fan-out accounted.
func TestClusterLoadReplicated(t *testing.T) {
	addrs := startNodes(t, 3)

	// A flaky proxy in front of one node: latency plus occasional
	// one-way drops, the asymmetric-partition shape.
	spec, err := netchaos.ParseSpec("latency:d=1ms,p=0.05;drop:p=0.005,dir=s2c", 3)
	if err != nil {
		t.Fatal(err)
	}
	proxy := netchaos.New(addrs[0], spec)
	if err := proxy.Start(""); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cfg := LoadConfig{
		Cluster: Config{
			Nodes:       addrs,
			Replication: 2,
			VNodes:      32,
			DialAddr:    map[string]string{addrs[0]: proxy.Addr()},
		},
		Clients:   2,
		Ops:       12000,
		KeySpace:  2048,
		ValBytes:  32,
		GetFrac:   0.7,
		Pipeline:  8,
		Seed:      5,
		OpTimeout: 250 * time.Millisecond,
		Oracle:    true,
	}
	rep, err := RunLoad(cfg)
	if err != nil {
		t.Fatalf("load: %v (report %+v)", err, rep)
	}
	if rep.Ops != cfg.Ops {
		t.Fatalf("completed %d of %d ops", rep.Ops, cfg.Ops)
	}
	if rep.WrongGets != 0 {
		t.Fatalf("%d wrong GETs under chaos", rep.WrongGets)
	}
	if rep.Unclassified != 0 {
		t.Fatalf("%d unclassified errors", rep.Unclassified)
	}
	if rep.ReplicaSets == 0 {
		t.Fatal("R=2 run fanned out no replica writes")
	}
	t.Logf("chaos load: %d ops, %d timeouts, %d resets, %d retried, %d failovers, %d replica sets",
		rep.Ops, rep.Timeouts, rep.Resets, rep.Retried, rep.Failovers, rep.ReplicaSets)
}

// TestClusterEquiv: the per-shard equivalence claim survives ring
// partitioning — every node's store reproduces its simulator reference
// bit-for-bit under clustered replay.
func TestClusterEquiv(t *testing.T) {
	for _, nodes := range []int{2, 3} {
		rep, err := ReplayEquivByName("canneal",
			zkv.Config{Ways: 4, Rows: 256, Levels: 2, Seed: 1234}, nodes, 16, 40000)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Match {
			t.Fatalf("%d nodes: divergence: %s", nodes, rep.Detail)
		}
		if rep.Accesses != 40000 {
			t.Fatalf("replayed %d accesses", rep.Accesses)
		}
		victims := 0
		for _, ne := range rep.PerNode {
			if ne.Accesses == 0 {
				t.Fatalf("%d nodes: %s saw no traffic", nodes, ne.Node)
			}
			victims += ne.Victims
		}
		if victims == 0 {
			t.Fatalf("%d nodes: no victims; equivalence is vacuous", nodes)
		}
		t.Logf("%d nodes: %d identical victims across the cluster", nodes, victims)
	}
}
