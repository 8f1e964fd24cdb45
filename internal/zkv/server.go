package zkv

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zcache/internal/zkvproto"
)

// ServerConfig sizes a Server around an open Store.
type ServerConfig struct {
	// Addr is the TCP listen address for ListenAndServe (default
	// "127.0.0.1:7171").
	Addr string
	// MaxConns bounds concurrently served connections (default
	// 4*GOMAXPROCS). When the pool is exhausted the accept loop sheds:
	// the over-limit connection receives one StatusBusy frame and is
	// closed immediately — it never stalls the accept loop and never
	// waits silently.
	MaxConns int
	// DrainTimeout is how long Shutdown lets connections finish buffered
	// and in-flight requests before they are force-closed (default 5s).
	DrainTimeout time.Duration
	// IdleTimeout force-closes a connection that starts no new request
	// for this long (default 5m; negative disables). An idle slot is a
	// pool slot a paying client cannot have.
	IdleTimeout time.Duration
	// ReadTimeout bounds how long the server waits for the rest of a
	// request frame it has started but not fully received (default 10s;
	// negative disables). It is armed afresh before each decode that must
	// read from the connection; frames already buffered whole decode
	// without one. This is the slow-loris guard: a reader trickling
	// header bytes is force-closed, not waited on.
	ReadTimeout time.Duration
	// WriteTimeout bounds each write that reaches the connection: the
	// flush at the end of a burst, or a reply too large for the write
	// buffer (default 10s; negative disables). It is armed afresh before
	// each such write. A client that stops reading its replies stalls
	// the server's writes; past the deadline the connection is
	// force-closed.
	WriteTimeout time.Duration
	// MaxPipeline bounds the requests executed per pipelined burst — a
	// burst being the frames decoded between wire flushes (default 1024;
	// negative disables). Requests beyond the bound are answered
	// StatusBusy without touching the store; the shed contract
	// guarantees they were not executed, so clients retry them safely.
	MaxPipeline int
	// DisableMigration rejects the cluster resharding verbs (MIGRATE,
	// FORGET) with StatusErr. Off by default: a standalone zcached answers
	// them too — they only read or drop data the caller could reach with
	// GET/DEL anyway.
	DisableMigration bool
	// MigratePageBytes caps one MIGRATE response page's entry bytes
	// (default 256KiB; always clamped under the protocol frame limit).
	// Clients may ask for less per page, never more.
	MigratePageBytes int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7171"
	}
	if c.MaxConns == 0 {
		c.MaxConns = 4 * runtime.GOMAXPROCS(0)
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	switch {
	case c.IdleTimeout == 0:
		c.IdleTimeout = 5 * time.Minute
	case c.IdleTimeout < 0:
		c.IdleTimeout = 0
	}
	switch {
	case c.ReadTimeout == 0:
		c.ReadTimeout = 10 * time.Second
	case c.ReadTimeout < 0:
		c.ReadTimeout = 0
	}
	switch {
	case c.WriteTimeout == 0:
		c.WriteTimeout = 10 * time.Second
	case c.WriteTimeout < 0:
		c.WriteTimeout = 0
	}
	switch {
	case c.MaxPipeline == 0:
		c.MaxPipeline = 1024
	case c.MaxPipeline < 0:
		c.MaxPipeline = 0
	}
	if c.MigratePageBytes <= 0 {
		c.MigratePageBytes = 256 << 10
	}
	if c.MigratePageBytes > zkvproto.MaxValLen-64 {
		c.MigratePageBytes = zkvproto.MaxValLen - 64
	}
	return c
}

// Server serves the zkvproto protocol over TCP against one Store. Requests
// on a connection are answered strictly in order; responses are flushed once
// no further whole request is buffered, so a pipelined burst gets one flush.
//
// The serving path is defensive end to end: slow or stalled peers are
// force-closed by per-connection deadlines, pool and pipeline exhaustion
// shed with an explicit StatusBusy contract, and graceful drain always
// completes within its deadline even with silent clients attached.
type Server struct {
	store *Store
	cfg   ServerConfig

	sem        chan struct{} // bounded worker pool: one slot per live conn
	inShutdown atomic.Bool
	started    atomic.Bool
	// drainDeadline (unix nanos; 0 = not draining) clamps every
	// per-connection deadline once Shutdown begins, so no idle or
	// in-progress read can outlive the drain window.
	drainDeadline atomic.Int64
	wg            sync.WaitGroup

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}

	connsTotal    atomic.Uint64
	requestsTotal atomic.Uint64
	protoErrors   atomic.Uint64

	migratePages   atomic.Uint64 // MIGRATE pages served
	migrateEntries atomic.Uint64 // entries streamed across all MIGRATE pages
	migrateBytes   atomic.Uint64 // page bytes streamed
	forgets        atomic.Uint64 // FORGET requests executed
	forgetDropped  atomic.Uint64 // entries dropped by FORGET

	shedConns    atomic.Uint64 // connections refused with StatusBusy (pool full)
	shedRequests atomic.Uint64 // requests answered StatusBusy (pipeline depth)
	idleCloses   atomic.Uint64 // conns closed by IdleTimeout
	readCloses   atomic.Uint64 // conns closed mid-frame by ReadTimeout (slow loris)
	writeCloses  atomic.Uint64 // conns closed by WriteTimeout (stalled reader)
	drainCloses  atomic.Uint64 // conns force-closed at the drain deadline
}

// NewServer wraps store in a protocol server.
func NewServer(store *Store, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		store: store,
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxConns),
		conns: make(map[net.Conn]struct{}),
	}
}

// Addr returns the bound listen address once Serve or ListenAndServe has a
// listener, or "" before that. Useful with ":0" configs.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Ready reports whether the server is accepting and serving traffic: true
// between Serve's start and Shutdown's begin. cmd/zcached's -metrics
// /ready endpoint exposes it for load balancers.
func (s *Server) Ready() bool {
	return s.started.Load() && !s.inShutdown.Load()
}

// ErrServerClosed is returned by Serve after a graceful Shutdown.
var ErrServerClosed = errors.New("zkv: server closed")

// ListenAndServe binds cfg.Addr and serves until Shutdown or a fatal
// listener error.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown. Each connection is served
// by one goroutine from the bounded pool; when the pool is full, new
// connections are shed with a StatusBusy frame instead of queueing, so the
// accept loop never stalls behind a full house.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.inShutdown.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.started.Store(true)

	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.inShutdown.Load() {
				return ErrServerClosed
			}
			return err
		}
		select {
		case s.sem <- struct{}{}:
		default:
			// Pool exhausted: fail fast. The peer gets one StatusBusy
			// frame (best effort, bounded by a short write deadline) and
			// an immediate close — the explicit shed contract.
			s.shedConns.Add(1)
			go shedConn(conn)
			continue
		}
		s.mu.Lock()
		if s.inShutdown.Load() {
			s.mu.Unlock()
			conn.Close()
			<-s.sem
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		// Counted under the lock that registers the conn: Shutdown takes
		// the same lock before it waits, so it either sees this handler
		// in the WaitGroup or this loop sees inShutdown above.
		s.wg.Add(1)
		s.mu.Unlock()
		s.connsTotal.Add(1)
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
				<-s.sem
				s.wg.Done()
			}()
			s.serveConn(conn)
		}()
	}
}

// shedConn tells an over-limit peer it was shed, then hangs up.
func shedConn(conn net.Conn) {
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	bw := bufio.NewWriterSize(conn, 64)
	resp := zkvproto.Response{Status: zkvproto.StatusBusy, Val: []byte("connection pool exhausted")}
	if resp.WriteTo(bw) == nil {
		bw.Flush()
	}
	conn.Close()
}

// Shutdown stops accepting, then lets live connections drain buffered and
// in-flight requests for up to DrainTimeout before they are force-closed
// (counted in zkv_drain_force_closes_total). It returns nil once every
// connection has finished, or ctx.Err() if ctx expires first (connections
// are then closed immediately).
func (s *Server) Shutdown(ctx context.Context) error {
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	s.drainDeadline.Store(deadline.UnixNano())
	s.inShutdown.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		// Unblock handlers parked in a read: already-buffered pipelined
		// frames still get decoded and answered; only waiting for *new*
		// bytes times out. serveConn clamps any deadline it sets after
		// this point to the same drain deadline.
		conn.SetReadDeadline(deadline)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// clampDrain caps t at drain deadline dd (unix nanos) once Shutdown has
// begun (dd != 0). A zero t means "no deadline" and clamps to dd alone.
func clampDrain(t time.Time, dd int64) time.Time {
	if dd != 0 {
		if d := time.Unix(0, dd); t.IsZero() || d.Before(t) {
			return d
		}
	}
	return t
}

// arm sets one of conn's deadlines (set is SetReadDeadline or
// SetWriteDeadline) to t, clamped to the drain deadline. Shutdown may store
// the drain deadline and set its own conn deadline between this load and
// this set, and ours would then win unclamped; so when draining began
// meanwhile, the deadline is set again, clamped.
func (s *Server) arm(conn net.Conn, read bool, t time.Time) {
	set := conn.SetWriteDeadline
	if read {
		set = conn.SetReadDeadline
	}
	dd := s.drainDeadline.Load()
	set(clampDrain(t, dd))
	if dd == 0 {
		if dd = s.drainDeadline.Load(); dd != 0 {
			set(clampDrain(t, dd))
		}
	}
}

// armRead sets conn's read deadline to d from now (none for d <= 0),
// clamped to the drain deadline.
func (s *Server) armRead(conn net.Conn, d time.Duration) {
	var t time.Time
	if d > 0 {
		t = time.Now().Add(d)
	}
	s.arm(conn, true, t)
}

// armWrite sets conn's write deadline to WriteTimeout from now, clamped to
// the drain deadline. It does nothing when WriteTimeout is disabled.
func (s *Server) armWrite(conn net.Conn) {
	if s.cfg.WriteTimeout > 0 {
		s.arm(conn, false, time.Now().Add(s.cfg.WriteTimeout))
	}
}

// frameBuffered reports whether br already holds the whole next request
// frame, so decoding it cannot block on the connection.
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < zkvproto.RequestHeaderLen {
		return false
	}
	hdr, _ := br.Peek(zkvproto.RequestHeaderLen)
	return n >= zkvproto.RequestLen(hdr)
}

// isTimeout reports whether a conn error is a deadline expiry.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// serveConn runs one connection's request loop. All per-request state is
// reused across iterations, so the steady-state loop does not allocate.
//
// The loop pays per burst, not per request. A burst is the run of frames
// that are already whole in the read buffer; they decode and execute
// without touching the connection, and their replies collect in the write
// buffer. The burst ends when the next frame is not whole, that is when the
// next decode may block: the replies are flushed first, so a peer is never
// kept waiting for replies the server holds.
//
// Deadline discipline: every read or write on the connection that can
// block runs under a deadline armed just before it. Waiting for a burst's
// first byte runs under the idle timeout; finishing a frame that is only
// partly buffered runs under ReadTimeout; the burst-end flush, and a reply
// too large for the write buffer, run under WriteTimeout. Every deadline is
// clamped to the drain deadline during shutdown, so a silent or stalled
// peer can never hold the drain hostage.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var (
		req   zkvproto.Request
		resp  zkvproto.Response
		dst   []byte
		depth int // requests executed since the last flush
	)
	for {
		if !frameBuffered(br) {
			// Burst end: hand the peer every reply it is owed before
			// the next decode may block.
			if depth > 0 {
				s.armWrite(conn)
				if err := bw.Flush(); err != nil {
					if isTimeout(err) {
						s.writeCloses.Add(1)
					}
					return
				}
				depth = 0
			}
			if br.Buffered() == 0 {
				// Between bursts: wait for the next request under the
				// idle timeout. This also replaces any ReadTimeout
				// deadline left armed by the previous burst.
				s.armRead(conn, s.cfg.IdleTimeout)
				if _, err := br.Peek(1); err != nil {
					if isTimeout(err) {
						if s.inShutdown.Load() {
							s.drainCloses.Add(1)
						} else {
							s.idleCloses.Add(1)
						}
					}
					return
				}
			}
			if s.cfg.ReadTimeout > 0 && !frameBuffered(br) {
				s.armRead(conn, s.cfg.ReadTimeout)
			}
		}
		err := req.ReadFrom(br)
		if err != nil {
			if isTimeout(err) {
				// A frame started arriving and never finished: slow loris
				// (or the drain deadline caught a mid-frame straggler).
				if s.inShutdown.Load() {
					s.drainCloses.Add(1)
				} else {
					s.readCloses.Add(1)
				}
				return
			}
			if perr := protoError(err); perr != "" {
				// Tell the peer why before hanging up.
				s.protoErrors.Add(1)
				resp.Status = zkvproto.StatusErr
				resp.Val = append(resp.Val[:0], perr...)
				s.armWrite(conn)
				if resp.WriteTo(bw) == nil {
					bw.Flush()
				}
			}
			return
		}
		s.requestsTotal.Add(1)
		depth++

		if s.cfg.MaxPipeline > 0 && depth > s.cfg.MaxPipeline {
			// Pipeline depth exhausted: shed without executing. The
			// client may retry the request — it never touched the store.
			s.shedRequests.Add(1)
			resp.Status = zkvproto.StatusBusy
			resp.Val = append(resp.Val[:0], "pipeline depth exceeded"...)
		} else {
			switch req.Op {
			case zkvproto.OpGet:
				var ok bool
				dst, ok = s.store.Get(req.Key, dst[:0])
				if ok {
					resp.Status = zkvproto.StatusOK
					resp.Val = dst
				} else {
					resp.Status = zkvproto.StatusNotFound
					resp.Val = resp.Val[:0]
				}
			case zkvproto.OpSet:
				if err := s.store.Set(req.Key, req.Val); err != nil {
					resp.Status = zkvproto.StatusErr
					resp.Val = append(resp.Val[:0], err.Error()...)
				} else {
					resp.Status = zkvproto.StatusOK
					resp.Val = resp.Val[:0]
				}
			case zkvproto.OpDel:
				if s.store.Delete(req.Key) {
					resp.Status = zkvproto.StatusOK
				} else {
					resp.Status = zkvproto.StatusNotFound
				}
				resp.Val = resp.Val[:0]
			case zkvproto.OpStats:
				resp.Status = zkvproto.StatusOK
				resp.Val = s.appendMetrics(resp.Val[:0])
			case zkvproto.OpPing:
				resp.Status = zkvproto.StatusOK
				resp.Val = resp.Val[:0]
			case zkvproto.OpMigrate:
				s.serveMigrate(&req, &resp)
			case zkvproto.OpForget:
				s.serveForget(&req, &resp)
			}
		}
		if zkvproto.ResponseHeaderLen+len(resp.Val) > bw.Available() {
			// The reply does not fit the write buffer, so writing it
			// reaches the connection.
			s.armWrite(conn)
		}
		if err := resp.WriteTo(bw); err != nil {
			if isTimeout(err) {
				s.writeCloses.Add(1)
			}
			return
		}
	}
}

// serveMigrate answers one page of a resharding range scan. The page is
// built straight into the response buffer: header reserved, entries appended
// under the store's per-shard locks, header patched with the resume cursor.
func (s *Server) serveMigrate(req *zkvproto.Request, resp *zkvproto.Response) {
	if s.cfg.DisableMigration {
		resp.Status = zkvproto.StatusErr
		resp.Val = append(resp.Val[:0], "migration disabled"...)
		return
	}
	mreq, err := zkvproto.ParseMigrateReq(req.Key)
	if err != nil {
		resp.Status = zkvproto.StatusErr
		resp.Val = append(resp.Val[:0], err.Error()...)
		return
	}
	maxBytes := s.cfg.MigratePageBytes
	if mreq.MaxBytes > 0 && int(mreq.MaxBytes) < maxBytes {
		maxBytes = int(mreq.MaxBytes)
	}
	page := zkvproto.BeginMigratePage(resp.Val[:0])
	page, next, count := s.store.MigrateRange(mreq.Start, mreq.End, mreq.Cursor, maxBytes, page)
	zkvproto.PatchMigratePage(page, 0, next, uint32(count))
	resp.Status = zkvproto.StatusOK
	resp.Val = page
	s.migratePages.Add(1)
	s.migrateEntries.Add(uint64(count))
	s.migrateBytes.Add(uint64(len(page)))
}

// serveForget drops an arc's entries and clean-marks the persistent shard
// mirrors, so the on-disk image a crash would restore reflects the handoff.
func (s *Server) serveForget(req *zkvproto.Request, resp *zkvproto.Response) {
	if s.cfg.DisableMigration {
		resp.Status = zkvproto.StatusErr
		resp.Val = append(resp.Val[:0], "migration disabled"...)
		return
	}
	freq, err := zkvproto.ParseForgetReq(req.Key)
	if err != nil {
		resp.Status = zkvproto.StatusErr
		resp.Val = append(resp.Val[:0], err.Error()...)
		return
	}
	dropped := s.store.ForgetRange(freq.Start, freq.End)
	// Best effort: a checkpoint fault detaches the mirror (standard rebuild
	// signal) but the forget itself succeeded.
	s.store.Checkpoint()
	s.forgets.Add(1)
	s.forgetDropped.Add(uint64(dropped))
	resp.Status = zkvproto.StatusOK
	resp.Val = append(resp.Val[:0], make([]byte, 8)...)
	binary.BigEndian.PutUint64(resp.Val, uint64(dropped))
}

// protoError returns a short message for protocol-level decode failures
// worth reporting to the peer, and "" for plain disconnects/timeouts.
func protoError(err error) string {
	switch {
	case errors.Is(err, zkvproto.ErrBadOp),
		errors.Is(err, zkvproto.ErrBadFrame),
		errors.Is(err, zkvproto.ErrFrameTooLarge):
		return err.Error()
	default:
		return ""
	}
}

// MetricsText renders the metrics text the STATS op returns; cmd/zcached's
// -metrics HTTP endpoint serves the same bytes.
func (s *Server) MetricsText() []byte { return s.appendMetrics(nil) }

// ShedStats reports the shed and deadline force-close counters, for tests
// and operators reasoning about overload behavior.
type ShedStats struct {
	ShedConns, ShedRequests                          uint64
	IdleCloses, ReadCloses, WriteCloses, DrainCloses uint64
}

// ShedStats snapshots the robustness counters.
func (s *Server) ShedStats() ShedStats {
	return ShedStats{
		ShedConns:    s.shedConns.Load(),
		ShedRequests: s.shedRequests.Load(),
		IdleCloses:   s.idleCloses.Load(),
		ReadCloses:   s.readCloses.Load(),
		WriteCloses:  s.writeCloses.Load(),
		DrainCloses:  s.drainCloses.Load(),
	}
}

// appendMetrics renders the Prometheus-style counter text served by the
// STATS op (and cmd/zcached's -metrics endpoint).
func (s *Server) appendMetrics(dst []byte) []byte {
	st := s.store.Stats()
	line := func(name string, v uint64) {
		dst = append(dst, name...)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, v, 10)
		dst = append(dst, '\n')
	}
	line("zkv_shards", uint64(st.Shards))
	line("zkv_capacity_entries", uint64(st.Capacity))
	line("zkv_resident_entries", uint64(st.Resident))
	line("zkv_gets_total", st.Gets)
	line("zkv_get_hits_total", st.GetHits)
	line("zkv_get_misses_total", st.GetMisses)
	line("zkv_sets_total", st.Sets)
	line("zkv_inserts_total", st.Inserts)
	line("zkv_overwrites_total", st.Overwrites)
	line("zkv_dels_total", st.Dels)
	line("zkv_del_hits_total", st.DelHits)
	line("zkv_evictions_total", st.Evictions)
	line("zkv_relocations_total", st.Relocations)
	line("zkv_key_collisions_total", st.Collisions)
	line("zkv_conns_total", s.connsTotal.Load())
	line("zkv_requests_total", s.requestsTotal.Load())
	line("zkv_proto_errors_total", s.protoErrors.Load())
	ready := uint64(0)
	if s.Ready() {
		ready = 1
	}
	line("zkv_ready", ready)
	line("zkv_migrate_pages_total", s.migratePages.Load())
	line("zkv_migrate_entries_total", s.migrateEntries.Load())
	line("zkv_migrate_bytes_total", s.migrateBytes.Load())
	line("zkv_forgets_total", s.forgets.Load())
	line("zkv_forget_dropped_total", s.forgetDropped.Load())
	line("zkv_shed_conns_total", s.shedConns.Load())
	line("zkv_shed_requests_total", s.shedRequests.Load())
	line("zkv_deadline_idle_closes_total", s.idleCloses.Load())
	line("zkv_deadline_read_closes_total", s.readCloses.Load())
	line("zkv_deadline_write_closes_total", s.writeCloses.Load())
	line("zkv_drain_force_closes_total", s.drainCloses.Load())
	for i, v := range st.WalkDepth {
		label := fmt.Sprintf(`zkv_walk_depth_bucket{depth="%d"}`, i)
		if i == WalkHistBuckets-1 {
			label = fmt.Sprintf(`zkv_walk_depth_bucket{depth="%d+"}`, i)
		}
		line(label, v)
	}
	if rep := s.store.Persist(); rep.Enabled {
		line("zkv_persist_enabled", 1)
		line("zkv_persist_warm_shards", uint64(rep.WarmShards))
		line("zkv_persist_cold_shards", uint64(rep.ColdShards))
		line("zkv_persist_rebuilds", uint64(rep.Rebuilds))
		line("zkv_persist_warm_entries", uint64(rep.WarmEntries))
		line("zkv_persist_detached_shards", uint64(rep.Detached))
		line("zkv_persist_skipped_total", rep.Skipped)
	}
	return dst
}
