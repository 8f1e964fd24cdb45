package zkv

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zcache/internal/zkvproto"
)

// startServer runs a server on an ephemeral port and returns it with its
// address and the Serve error channel.
func startServer(t testing.TB, scfg ServerConfig) (*Server, string, chan error) {
	t.Helper()
	store, err := Open(Config{Shards: 2, Ways: 4, Rows: 256, Levels: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, scfg)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), errc
}

func shutdownServer(t testing.TB, srv *Server, errc chan error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

func TestServerBasicOps(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{})
	defer shutdownServer(t, srv, errc)

	cl, err := zkvproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.Get([]byte("alpha"), nil)
	if err != nil || !ok || string(v) != "one" {
		t.Fatalf("Get = %q, %t, %v", v, ok, err)
	}
	if _, ok, err := cl.Get([]byte("beta"), nil); err != nil || ok {
		t.Fatalf("missing key: ok=%t err=%v", ok, err)
	}
	if ok, err := cl.Del([]byte("alpha")); err != nil || !ok {
		t.Fatalf("Del = %t, %v", ok, err)
	}
	if ok, err := cl.Del([]byte("alpha")); err != nil || ok {
		t.Fatalf("second Del = %t, %v", ok, err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"zkv_gets_total 2", "zkv_sets_total 1", "zkv_dels_total 2",
		"zkv_requests_total", "zkv_walk_depth_bucket",
	} {
		if !strings.Contains(stats, want) {
			t.Errorf("metrics missing %q:\n%s", want, stats)
		}
	}
}

func TestServerPipelining(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{})
	defer shutdownServer(t, srv, errc)

	cl, err := zkvproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 500
	for i := 0; i < n; i++ {
		if err := cl.QueueSet([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		resp, err := cl.ReadReply()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if resp.Status != zkvproto.StatusOK {
			t.Fatalf("reply %d: status %d %q", i, resp.Status, resp.Val)
		}
	}
	for i := 0; i < n; i++ {
		if err := cl.QueueGet([]byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < n; i++ {
		resp, err := cl.ReadReply()
		if err != nil {
			t.Fatalf("get reply %d: %v", i, err)
		}
		if resp.Status == zkvproto.StatusOK {
			hits++
			if want := fmt.Sprintf("v%03d", i); string(resp.Val) != want {
				t.Fatalf("get %d = %q, want %q", i, resp.Val, want)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no pipelined GET hits")
	}
}

func TestServerRejectsOversizedValue(t *testing.T) {
	store, err := Open(Config{Shards: 1, Ways: 4, Rows: 64, MaxValBytes: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerConfig{})
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	defer shutdownServer(t, srv, errc)

	cl, err := zkvproto.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Set([]byte("k"), make([]byte, 4096))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized set: %v", err)
	}
	// The connection survives the rejected request.
	if err := cl.Set([]byte("k"), []byte("small")); err != nil {
		t.Fatalf("follow-up set: %v", err)
	}
}

func TestServerGracefulDrain(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{DrainTimeout: 2 * time.Second})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := zkvproto.NewClient(conn)
	// Prove the connection is live (accepted, its handler running) first:
	// a connection still in the listen backlog when Shutdown closes the
	// listener is reset by the kernel, not drained.
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	// Queue a pipelined burst and flush it, then immediately shut down.
	// The server must answer every request before the connection dies.
	const n = 200
	for i := 0; i < n; i++ {
		if err := cl.QueueSet([]byte(fmt.Sprintf("drain%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	sdErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sdErr <- srv.Shutdown(ctx)
	}()

	for i := 0; i < n; i++ {
		resp, err := cl.ReadReply()
		if err != nil {
			t.Fatalf("drained reply %d: %v", i, err)
		}
		if resp.Status != zkvproto.StatusOK {
			t.Fatalf("drained reply %d: status %d", i, resp.Status)
		}
	}
	if err := <-sdErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	// New connections must be refused after shutdown.
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestServerShedsWhenPoolFull pins the shed contract: an over-limit
// connection gets one StatusBusy frame and an immediate close — it is
// never silently parked — and the shed is counted. Once a slot frees, new
// connections serve normally again.
func TestServerShedsWhenPoolFull(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{MaxConns: 2, DrainTimeout: time.Second})
	defer shutdownServer(t, srv, errc)

	c1, err := zkvproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := zkvproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}

	// Pool full: the third client must fail fast with a busy-class error,
	// not hang.
	c3, err := zkvproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c3.SetDeadline(time.Now().Add(3 * time.Second))
	err = c3.Ping()
	if zkvproto.Classify(err) != zkvproto.ClassBusy {
		t.Fatalf("over-limit ping: err=%v class=%v, want busy", err, zkvproto.Classify(err))
	}
	c3.Close()
	if got := srv.ShedStats().ShedConns; got == 0 {
		t.Fatal("shed connection not counted")
	}

	// Free a slot; a new connection must serve normally.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c4, err := zkvproto.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		c4.SetDeadline(time.Now().Add(time.Second))
		err = c4.Ping()
		c4.Close()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	c2.Close()
}

// TestServerShedsDeepPipeline pins the pipeline-depth contract: requests
// beyond MaxPipeline in one burst are answered StatusBusy without touching
// the store, and the sheds are counted.
func TestServerShedsDeepPipeline(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{MaxPipeline: 4, DrainTimeout: time.Second})
	defer shutdownServer(t, srv, errc)

	cl, err := zkvproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// One 256-request burst in a single flush (it arrives well inside one
	// TCP segment, so the server sees it as one pipelined burst).
	const n = 256
	for i := 0; i < n; i++ {
		if err := cl.QueueSet([]byte(fmt.Sprintf("deep%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	ok, busy := 0, 0
	for i := 0; i < n; i++ {
		resp, err := cl.ReadReply()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		switch resp.Status {
		case zkvproto.StatusOK:
			ok++
		case zkvproto.StatusBusy:
			busy++
		default:
			t.Fatalf("reply %d: status %d %q", i, resp.Status, resp.Val)
		}
	}
	if ok == 0 || busy == 0 {
		t.Fatalf("burst of %d with MaxPipeline=4: ok=%d busy=%d, want both nonzero", n, ok, busy)
	}
	if got := srv.ShedStats().ShedRequests; got != uint64(busy) {
		t.Fatalf("shed counter %d != busy replies %d", got, busy)
	}
	// Shed requests were never executed: only the OK'd keys are resident.
	if res := srv.store.Len(); res != ok {
		t.Fatalf("%d keys resident, want %d (shed SETs must not execute)", res, ok)
	}
	// A fresh small burst on the same connection serves normally again.
	if err := cl.Set([]byte("after"), []byte("v")); err != nil {
		t.Fatalf("post-shed set: %v", err)
	}
}

// TestServerIdleTimeout: a connection that never sends a request is
// force-closed and counted.
func TestServerIdleTimeout(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{IdleTimeout: 100 * time.Millisecond, DrainTimeout: time.Second})
	defer shutdownServer(t, srv, errc)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection was not closed")
	}
	if got := srv.ShedStats().IdleCloses; got == 0 {
		t.Fatal("idle close not counted")
	}
}

// TestServerSlowLorisClosed: a reader trickling a partial frame is
// force-closed by the read-progress deadline, and the pool slot frees.
func TestServerSlowLorisClosed(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{ReadTimeout: 100 * time.Millisecond, DrainTimeout: time.Second})
	defer shutdownServer(t, srv, errc)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Two header bytes of a SET frame, then silence.
	if _, err := conn.Write([]byte{zkvproto.OpSet, 0x00}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("slow-loris connection was not closed")
	}
	if got := srv.ShedStats().ReadCloses; got == 0 {
		t.Fatal("slow-loris close not counted")
	}
}

// TestServerDrainWithStalledClient is the drain half of the robustness
// contract: Shutdown must complete within the drain window even with a
// connected-but-silent client attached, force-closing (and counting) it.
func TestServerDrainWithStalledClient(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{DrainTimeout: 300 * time.Millisecond})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Prove the connection is live (and its handler running), then stall.
	cl := zkvproto.NewClient(conn)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with stalled client: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("drain took %v, want ~DrainTimeout (300ms)", d)
	}
	if err := <-errc; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	if got := srv.ShedStats().DrainCloses; got == 0 {
		t.Fatal("stalled client's force-close not counted")
	}
}

// TestServerRobustnessMetrics: the shed/deadline/readiness counters are on
// the metrics text.
func TestServerRobustnessMetrics(t *testing.T) {
	srv, _, errc := startServer(t, ServerConfig{})
	// Serve runs in a goroutine; wait for it to mark itself started.
	for start := time.Now(); !srv.Ready(); {
		if time.Since(start) > 2*time.Second {
			t.Fatal("server never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	text := string(srv.MetricsText())
	for _, want := range []string{
		"zkv_ready 1", "zkv_shed_conns_total 0", "zkv_shed_requests_total 0",
		"zkv_deadline_idle_closes_total 0", "zkv_deadline_read_closes_total 0",
		"zkv_deadline_write_closes_total 0", "zkv_drain_force_closes_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !srv.Ready() {
		t.Error("server not ready while serving")
	}
	shutdownServer(t, srv, errc)
	if srv.Ready() {
		t.Error("server still ready after shutdown")
	}
	if !strings.Contains(string(srv.MetricsText()), "zkv_ready 0") {
		t.Error("zkv_ready did not drop to 0 after shutdown")
	}
}

// armRaceConn forces the drain-deadline lost update. Its first
// SetReadDeadline is the handler arming its idle deadline, after it has
// read the (still unset) drain deadline: the call begins Shutdown and
// waits until Shutdown has set its own deadline on the conn (the second
// call), so the handler's unclamped deadline lands last.
type armRaceConn struct {
	net.Conn
	calls    atomic.Int32
	shutdown func()
	drainSet chan struct{}
}

func (c *armRaceConn) SetReadDeadline(t time.Time) error {
	switch c.calls.Add(1) {
	case 1:
		go c.shutdown()
		<-c.drainSet
	case 2:
		defer close(c.drainSet)
	}
	return c.Conn.SetReadDeadline(t)
}

type armRaceListener struct {
	net.Listener
	shutdown func()
}

func (l armRaceListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &armRaceConn{Conn: conn, shutdown: l.shutdown, drainSet: make(chan struct{})}, nil
}

// TestShutdownClampsRacingArm: when Shutdown begins between a handler's
// drain-deadline check and its SetReadDeadline, the handler must still end
// up under the drain deadline, so Shutdown returns within DrainTimeout and
// not after IdleTimeout.
func TestShutdownClampsRacingArm(t *testing.T) {
	store, err := Open(Config{Shards: 2, Ways: 4, Rows: 256, Levels: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const idle, drain = 5 * time.Second, 100 * time.Millisecond
	srv := NewServer(store, ServerConfig{IdleTimeout: idle, DrainTimeout: drain})
	type result struct {
		took time.Duration
		err  error
	}
	shut := make(chan result, 1)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		start := time.Now()
		err := srv.Shutdown(ctx)
		shut <- result{time.Since(start), err}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(armRaceListener{Listener: ln, shutdown: shutdown}) }()

	// A silent client: its handler arms the idle deadline and waits.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := <-shut
	if r.err != nil {
		t.Fatalf("shutdown: %v", r.err)
	}
	if r.took > 20*drain {
		t.Fatalf("shutdown took %v: the handler kept its %v idle deadline past the %v drain", r.took, idle, drain)
	}
	if err := <-errc; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if got := srv.ShedStats(); got.DrainCloses != 1 {
		t.Fatalf("drain force-closes = %d, want 1", got.DrainCloses)
	}
}

// TestServerShutdownWaitsForAcceptedConns: a connection accepted while
// Shutdown begins is either refused or waited for; Shutdown never returns
// with a handler still running. A client dials in a loop while Shutdown
// runs. Run it under -race: the race detector also flags a handler that
// joins the WaitGroup unordered with Shutdown's Wait, even when the timing
// happens to work out.
func TestServerShutdownWaitsForAcceptedConns(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		srv, addr, errc := startServer(t, ServerConfig{DrainTimeout: 200 * time.Millisecond})
		stop := make(chan struct{})
		dialed := make(chan struct{})
		go func() {
			defer close(dialed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
					c.Close()
				}
			}
		}()
		for start := time.Now(); srv.connsTotal.Load() < uint64(1+iter%4) && time.Since(start) < 2*time.Second; {
			runtime.Gosched()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := srv.Shutdown(ctx)
		cancel()
		srv.mu.Lock()
		live := len(srv.conns)
		srv.mu.Unlock()
		close(stop)
		<-dialed
		if err != nil {
			t.Fatalf("iteration %d: shutdown: %v", iter, err)
		}
		if live != 0 {
			t.Fatalf("iteration %d: Shutdown returned with %d handlers still running", iter, live)
		}
		if err := <-errc; !errors.Is(err, ErrServerClosed) {
			t.Fatalf("iteration %d: Serve returned %v", iter, err)
		}
	}
}

// TestServerStalledReaderWriteTimeout: a client that pipelines large GETs
// and never reads its replies stalls the server's writes; WriteTimeout
// closes the connection and counts it.
func TestServerStalledReaderWriteTimeout(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{WriteTimeout: 100 * time.Millisecond, DrainTimeout: time.Second})
	defer shutdownServer(t, srv, errc)

	cl, err := zkvproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Set([]byte("big"), bytes.Repeat([]byte{'v'}, 1<<20)); err != nil {
		t.Fatal(err)
	}
	// 64 MiB of replies: far more than the socket buffers hold.
	const n = 64
	for i := 0; i < n; i++ {
		if err := cl.QueueGet([]byte("big")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); srv.ShedStats().WriteCloses == 0; {
		if time.Since(start) > 5*time.Second {
			t.Fatal("stalled reader was not closed by WriteTimeout")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Draining what the socket buffers held ends in a closed connection,
	// not in all n replies.
	cl.SetDeadline(time.Now().Add(5 * time.Second))
	got := 0
	for ; got < n; got++ {
		if _, err = cl.ReadReply(); err != nil {
			break
		}
	}
	if got == n || zkvproto.Classify(err) != zkvproto.ClassReset {
		t.Fatalf("after the write timeout: %d of %d replies, then %v; want a closed connection", got, n, err)
	}
}

// TestServerMidBurstSlowLoris: one write holds complete frames and then
// part of another. The complete frames are answered before the server
// waits for the rest, and the stalled frame then closes the connection
// under ReadTimeout.
func TestServerMidBurstSlowLoris(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{ReadTimeout: 100 * time.Millisecond, DrainTimeout: time.Second})
	defer shutdownServer(t, srv, errc)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	for _, req := range []zkvproto.Request{
		{Op: zkvproto.OpSet, Key: []byte("k"), Val: []byte("v")},
		{Op: zkvproto.OpGet, Key: []byte("k")},
		{Op: zkvproto.OpPing},
	} {
		if err := req.WriteTo(bw); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	// Two header bytes of a SET frame, then silence.
	buf.Write([]byte{zkvproto.OpSet, 0x00})
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	var resp zkvproto.Response
	for i, want := range []string{"", "v", ""} {
		if err := resp.ReadFrom(br); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if resp.Status != zkvproto.StatusOK || string(resp.Val) != want {
			t.Fatalf("reply %d: status %d val %q", i, resp.Status, resp.Val)
		}
	}
	if err := resp.ReadFrom(br); err != io.EOF {
		t.Fatalf("after the complete frames: got %v, want the connection closed", err)
	}
	if got := srv.ShedStats().ReadCloses; got == 0 {
		t.Fatal("mid-burst slow loris not counted")
	}
}

// TestServerLargeSetUnderReadTimeout: a SET whose value is larger than the
// server's 64 KiB read buffer takes several reads to arrive, all under
// ReadTimeout, and executes intact.
func TestServerLargeSetUnderReadTimeout(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{ReadTimeout: time.Second, DrainTimeout: time.Second})
	defer shutdownServer(t, srv, errc)

	cl, err := zkvproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	val := make([]byte, 300<<10)
	for i := range val {
		val[i] = byte(i * 7)
	}
	// Pipelined behind a small request, so the big frame starts mid-burst.
	if err := cl.QueueSet([]byte("small"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := cl.QueueSet([]byte("big"), val); err != nil {
		t.Fatal(err)
	}
	if err := cl.QueueGet([]byte("big")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resp, err := cl.ReadReply()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if resp.Status != zkvproto.StatusOK {
			t.Fatalf("reply %d: status %d %q", i, resp.Status, resp.Val)
		}
		if i == 2 && !bytes.Equal(resp.Val, val) {
			t.Fatalf("GET returned %d bytes that differ from the %d-byte SET", len(resp.Val), len(val))
		}
	}
	if got := srv.ShedStats().ReadCloses; got != 0 {
		t.Fatalf("%d read closes on a healthy connection", got)
	}
}

// getBurst is one client of an in-process server over loopback that sends
// 16-deep pipelined GET bursts for keys holding 128 B values.
type getBurst struct {
	cl   *zkvproto.Client
	keys [][]byte
}

func newGetBurst(tb testing.TB, addr string) *getBurst {
	tb.Helper()
	cl, err := zkvproto.Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	g := &getBurst{cl: cl}
	for i := 0; i < 16; i++ {
		key := []byte(fmt.Sprintf("burst:%02d", i))
		if err := cl.Set(key, bytes.Repeat([]byte{byte(i)}, 128)); err != nil {
			tb.Fatal(err)
		}
		g.keys = append(g.keys, key)
	}
	return g
}

// run sends one burst and reads its replies; every GET must hit.
func (g *getBurst) run() error {
	for _, key := range g.keys {
		if err := g.cl.QueueGet(key); err != nil {
			return err
		}
	}
	if err := g.cl.Flush(); err != nil {
		return err
	}
	for i := range g.keys {
		resp, err := g.cl.ReadReply()
		if err != nil {
			return err
		}
		if resp.Status != zkvproto.StatusOK || len(resp.Val) != 128 || resp.Val[0] != byte(i) {
			return fmt.Errorf("GET %d: status %d, %d-byte value", i, resp.Status, len(resp.Val))
		}
	}
	return nil
}

// TestServerPipelinedBurstDoesNotAllocate: a 16-deep GET burst through the
// server and client allocates nothing on either side.
func TestServerPipelinedBurstDoesNotAllocate(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{})
	defer shutdownServer(t, srv, errc)
	g := newGetBurst(t, addr)
	defer g.cl.Close()
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		if e := g.run(); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("16-deep GET burst allocates %.2f objects, want 0", allocs)
	}
}
