package zcluster

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"zcache/internal/netchaos"
	"zcache/internal/zkvproto"
)

// oneNode is the cluster config of a single zcached: a one-node ring.
func oneNode(addr string) Config { return Config{Nodes: []string{addr}} }

func TestRunLoad(t *testing.T) {
	addr := startNode(t, 5)
	rep, err := RunLoad(LoadConfig{
		Cluster: oneNode(addr), Clients: 4, Ops: 20000, KeySpace: 1024,
		ValBytes: 32, GetFrac: 0.8, Pipeline: 16, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("load saw %d errors", rep.Errors)
	}
	if rep.Ops != 20000 {
		t.Fatalf("completed %d ops, want 20000", rep.Ops)
	}
	if rep.Gets == 0 || rep.Sets == 0 || rep.Hits == 0 {
		t.Fatalf("degenerate mix: %+v", rep)
	}
	if rep.OpsPerSec <= 0 {
		t.Fatalf("ops/s = %v", rep.OpsPerSec)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.P999 < rep.P99 || rep.PMax < rep.P999 {
		t.Fatalf("latency percentiles not monotone: p50=%v p99=%v p999=%v max=%v",
			rep.P50, rep.P99, rep.P999, rep.PMax)
	}
}

// TestRunLoadRetriesFirstDial points a one-node ring at an address that
// refuses connections until a forwarder comes up there. The clients
// re-dial under the backoff budget and complete every op, and reaching
// the node at last is not a reconnect: no connection existed to re-dial.
func TestRunLoadRetriesFirstDial(t *testing.T) {
	addr := startNode(t, 5)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	late := ln.Addr().String()
	ln.Close()
	spec, err := netchaos.ParseSpec("", 1)
	if err != nil {
		t.Fatal(err)
	}
	proxy := netchaos.New(addr, spec)
	defer proxy.Close()
	up := make(chan error, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		up <- proxy.Start(late)
	}()

	ccfg := oneNode(addr)
	ccfg.DialAddr = map[string]string{addr: late}
	rep, err := RunLoad(LoadConfig{
		Cluster: ccfg, Clients: 2, Ops: 2000, KeySpace: 256, Seed: 3, Oracle: true,
	})
	if perr := <-up; perr != nil {
		t.Fatalf("forwarder on %s: %v", late, perr)
	}
	if err != nil {
		t.Fatalf("RunLoad with a late node: %v", err)
	}
	if rep.Ops != 2000 || rep.WrongGets != 0 {
		t.Fatalf("ops=%d wrong=%d, want 2000 and 0", rep.Ops, rep.WrongGets)
	}
	if rep.Resets == 0 || rep.Unclassified != 0 {
		t.Fatalf("no refused dial was classified: %+v", rep)
	}
	if rep.Reconnects != 0 {
		t.Fatalf("first dials counted as %d reconnects", rep.Reconnects)
	}
}

// TestRunLoadChaos drives the full load harness through a netchaos proxy
// injecting latency, resets, and blackholes, with a stalled connection
// parked on the server. The contract under faults: every operation
// eventually completes (the clients retry and reconnect), every transport
// error is classified, and — with the value oracle on — no GET ever
// returns wrong bytes.
func TestRunLoadChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos load run in -short mode")
	}
	addr := startNode(t, 5)
	spec, err := netchaos.ParseSpec(
		"latency:d=200us,jitter=1ms,p=0.05;reset:p=0.01;drop:p=0.002,n=2", 11)
	if err != nil {
		t.Fatal(err)
	}
	proxy := netchaos.New(addr, spec)
	if err := proxy.Start(""); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ccfg := oneNode(addr)
	ccfg.DialAddr = map[string]string{addr: proxy.Addr()}
	rep, err := RunLoad(LoadConfig{
		Cluster: ccfg, Clients: 4, Ops: 24000, KeySpace: 1024,
		ValBytes: 48, GetFrac: 0.7, Pipeline: 16, Seed: 9,
		OpTimeout: 500 * time.Millisecond, Oracle: true, Stall: 1,
	})
	if err != nil {
		t.Fatalf("RunLoad under chaos: %v", err)
	}
	if rep.Ops != 24000 {
		t.Fatalf("completed %d ops, want 24000", rep.Ops)
	}
	if rep.WrongGets > 0 {
		t.Fatalf("%d wrong GETs under chaos (%d verified)", rep.WrongGets, rep.VerifiedGets)
	}
	if rep.Unclassified > 0 {
		t.Fatalf("%d unclassified transport errors", rep.Unclassified)
	}
	if rep.VerifiedGets == 0 {
		t.Fatal("oracle verified no GET hits; workload degenerate")
	}
	// With reset:p=0.01 over thousands of chunks the fault path must have
	// actually been exercised.
	faults := rep.Timeouts + rep.Resets + rep.Busys + rep.ProtoErrors
	if faults == 0 || rep.Retried == 0 || rep.Reconnects == 0 {
		t.Fatalf("chaos run exercised no fault handling: %+v", rep)
	}
	st := proxy.Stats()
	if st.Resets == 0 {
		t.Fatalf("proxy injected no resets: %s", st.Describe())
	}
	t.Logf("chaos: %d faults (%d timeouts, %d resets, %d proto), %d retried, %d reconnects, %d ambiguous; proxy: %s",
		faults, rep.Timeouts, rep.Resets, rep.ProtoErrors, rep.Retried, rep.Reconnects,
		rep.Ambiguous, st.Describe())
}

// lyingServer speaks just enough zkvproto to answer every SET with OK and
// every GET with a hit whose value is garbage. The oracle must catch it.
func lyingServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				bw := bufio.NewWriter(conn)
				var req zkvproto.Request
				var resp zkvproto.Response
				for {
					if err := req.ReadFrom(br); err != nil {
						return
					}
					switch req.Op {
					case zkvproto.OpGet:
						resp.Status = zkvproto.StatusOK
						resp.Val = []byte("not what you stored, promise")
					default:
						resp.Status = zkvproto.StatusOK
						resp.Val = nil
					}
					if err := resp.WriteTo(bw); err != nil {
						return
					}
					if br.Buffered() == 0 {
						if err := bw.Flush(); err != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestChaosOracleDetectsWrongValues proves the oracle is a real check: a
// server that acknowledges writes but returns fabricated reads must show
// up as WrongGets, the condition zkvbench exits 2 on.
func TestChaosOracleDetectsWrongValues(t *testing.T) {
	addr := lyingServer(t)
	rep, err := RunLoad(LoadConfig{
		Cluster: oneNode(addr), Clients: 2, Ops: 2000, KeySpace: 128,
		ValBytes: 32, GetFrac: 0.5, Pipeline: 8, Seed: 3, Oracle: true,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.WrongGets == 0 {
		t.Fatalf("oracle verified a lying server: %+v", rep)
	}
	if rep.VerifiedGets != 0 {
		t.Fatalf("%d GETs verified against garbage values", rep.VerifiedGets)
	}
}

// TestRunLoadWriters: background writers stay saturated for the whole
// window without disturbing the measured accounting, and their payloads
// verify under the measured clients' oracle.
func TestRunLoadWriters(t *testing.T) {
	addr := startNode(t, 5)
	rep, err := RunLoad(LoadConfig{
		Cluster: oneNode(addr), Clients: 2, Ops: 20000, KeySpace: 1024,
		ValBytes: 32, GetFrac: 1, Pipeline: 16, Seed: 4, Oracle: true, Writers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 20000 || rep.Gets != 20000 || rep.Sets != 0 {
		t.Fatalf("writer sets leaked into the measured mix: %+v", rep)
	}
	if rep.WriterSets == 0 || rep.WriterErrors != 0 {
		t.Fatalf("writers: %d sets, %d errors", rep.WriterSets, rep.WriterErrors)
	}
	// The measured clients only read, so every hit is a writer's value.
	if rep.Hits == 0 || rep.VerifiedGets != rep.Hits || rep.WrongGets != 0 {
		t.Fatalf("oracle: %d hits, %d verified, %d wrong", rep.Hits, rep.VerifiedGets, rep.WrongGets)
	}
}

// TestLoadWritersStallOneNodeOnly: writers and stalled connections target
// one server, so a multi-node ring or a live join rejects them.
func TestLoadWritersStallOneNodeOnly(t *testing.T) {
	two := Config{Nodes: []string{"a:1", "b:2"}}
	ring, err := NewRing(two.Nodes, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []LoadConfig{
		{Cluster: two, Writers: 1},
		{Cluster: two, Stall: 1},
		{Cluster: Config{Router: NewRouter(ring)}, Writers: 1},
		{Cluster: oneNode("a:1"), Stall: 1, JoinNode: "b:2"},
	} {
		_, err := cfg.withDefaults()
		if err == nil || !strings.Contains(err.Error(), "one-node") {
			t.Errorf("%+v: err = %v, want a one-node rejection", cfg, err)
		}
	}
	if _, err := (LoadConfig{Cluster: oneNode("a:1"), Writers: 1, Stall: 1}).withDefaults(); err != nil {
		t.Fatal(err)
	}
}
