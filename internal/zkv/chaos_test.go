package zkv

import (
	"testing"
	"time"

	"zcache/internal/netchaos"
	"zcache/internal/zkvproto"
)

// TestChaosProxyBlackholeTimesOut pins the timeout classification: a
// blackholed direction with an op deadline must surface as ClassTimeout,
// not hang and not land in Unclassified.
func TestChaosProxyBlackholeTimesOut(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{})
	defer shutdownServer(t, srv, errc)

	spec, err := netchaos.ParseSpec("drop:p=1,n=1", 5)
	if err != nil {
		t.Fatal(err)
	}
	proxy := netchaos.New(addr, spec)
	if err := proxy.Start(""); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cl, err := zkvproto.DialOptions(proxy.Addr(), zkvproto.Options{
		OpTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	err = cl.Ping()
	if err == nil {
		t.Fatal("ping succeeded through a blackhole")
	}
	if got := zkvproto.Classify(err); got != zkvproto.ClassTimeout {
		t.Fatalf("blackholed ping classified %v (%v), want timeout", got, err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %v; deadline did not bound the hang", d)
	}
	if proxy.Stats().Drops == 0 {
		t.Fatal("proxy recorded no blackhole")
	}
}
