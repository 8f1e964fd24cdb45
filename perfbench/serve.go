package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"syscall"
	"time"

	"zcache/internal/zkv"
	"zcache/internal/zkvproto"
)

// The serving workloads drive an in-process zkv.Server over loopback with
// the store zcached builds from its default flags. Two client connections
// match the box's two CPUs.

const serveConns = 2

// zcachedConfig is the store cmd/zcached opens with its default flags.
func zcachedConfig() zkv.Config {
	return zkv.Config{Ways: 4, Rows: 4096, Levels: 2, Policy: zkv.PolicyBucketedLRU,
		Seed: 1, MaxValBytes: 1 << 20}
}

// zcachedCapacity opens a throwaway store to learn the default geometry's
// capacity (the shard count follows GOMAXPROCS).
func zcachedCapacity() (int, error) {
	st, err := zkv.Open(zcachedConfig())
	if err != nil {
		return 0, err
	}
	c := st.Capacity()
	return c, st.Close()
}

// session is one served store with its measurement connections.
type session struct {
	store   *zkv.Store
	srv     *zkv.Server
	served  chan error
	addr    string
	dir     string // persistence directory, "" when off
	openDur time.Duration
	conns   []net.Conn
}

// openSession opens the store (persisting under a fresh directory in
// scratch when persist is set), serves it on a loopback port, fills it
// with fillRanks through the protocol, and dials the measurement
// connections.
func openSession(scratch string, persist bool, ks *keySpace, fillRanks []uint32) (*session, error) {
	s := &session{}
	cfg := zcachedConfig()
	if persist {
		dir, err := os.MkdirTemp(scratch, "persist-")
		if err != nil {
			return nil, err
		}
		s.dir, cfg.PersistDir = dir, dir
	}
	t := time.Now()
	st, err := zkv.Open(cfg)
	s.openDur = time.Since(t)
	if err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	s.store = st
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		os.RemoveAll(s.dir)
		return nil, err
	}
	s.addr = ln.Addr().String()
	s.srv = zkv.NewServer(st, zkv.ServerConfig{})
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()

	if err := s.fill(ks, fillRanks); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < serveConns; i++ {
		c, err := net.Dial("tcp", s.addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
		// One PING proves the server is serving the connection before any
		// measurement (or teardown) touches it.
		if err := zkvproto.NewClient(c).Ping(); err != nil {
			s.close()
			return nil, fmt.Errorf("ping connection %d: %w", i, err)
		}
	}
	return s, nil
}

// fill SETs every rank through one pipelined client connection.
func (s *session) fill(ks *keySpace, ranks []uint32) error {
	c, err := zkvproto.Dial(s.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	const burst = 64
	for i := 0; i < len(ranks); i += burst {
		j := min(i+burst, len(ranks))
		for _, r := range ranks[i:j] {
			if err := c.QueueSet(ks.keys[r], ks.vals[r]); err != nil {
				return err
			}
		}
		if err := c.Flush(); err != nil {
			return err
		}
		for range ranks[i:j] {
			resp, err := c.ReadReply()
			if err != nil {
				return fmt.Errorf("fill: %w", err)
			}
			if resp.Status != zkvproto.StatusOK {
				return fmt.Errorf("fill: SET status %d: %s", resp.Status, resp.Val)
			}
		}
	}
	return nil
}

// close drops the client connections, drains the server, closes the store
// and removes its persistence directory.
func (s *session) close() error {
	for _, c := range s.conns {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, zkv.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// replyTally counts the replies of a run. A GET hit must carry the key's
// value; SET must succeed; DEL may hit or miss. Anything else — a busy
// shed, a server error, a wrong value — is a failed op.
type replyTally struct {
	gets, hits   int64
	failed       int64
	wrong, busy  int64
	firstFailure string
}

func (t *replyTally) note(ks *keySpace, o op, resp *zkvproto.Response) {
	switch {
	case resp.Status == zkvproto.StatusBusy:
		t.busy++
		t.fail("busy reply to op %d", o.code)
	case o.code == zkvproto.OpGet:
		t.gets++
		switch resp.Status {
		case zkvproto.StatusOK:
			if !ks.verifyHit(o.rank, resp.Val) {
				t.wrong++
				t.fail("GET rank %d returned a wrong value", o.rank)
				return
			}
			t.hits++
		case zkvproto.StatusNotFound:
		default:
			t.fail("GET status %d: %s", resp.Status, resp.Val)
		}
	case o.code == zkvproto.OpSet:
		if resp.Status != zkvproto.StatusOK {
			t.fail("SET status %d: %s", resp.Status, resp.Val)
		}
	default:
		if resp.Status != zkvproto.StatusOK && resp.Status != zkvproto.StatusNotFound {
			t.fail("DEL status %d: %s", resp.Status, resp.Val)
		}
	}
}

func (t *replyTally) fail(format string, args ...any) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (t *replyTally) add(o replyTally) {
	t.gets += o.gets
	t.hits += o.hits
	t.failed += o.failed
	t.wrong += o.wrong
	t.busy += o.busy
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

// request fills req with o's frame.
func request(req *zkvproto.Request, ks *keySpace, o op) {
	req.Op, req.Key, req.Val = o.code, ks.keys[o.rank], nil
	if o.code == zkvproto.OpSet {
		req.Val = ks.vals[o.rank]
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// equivCheck replays a simulator workload through a one-shard store of the
// serving geometry and through the simulator's reference cache; the
// eviction decisions must match bit for bit.
func equivCheck(out *outcome, cfg zkv.Config) error {
	cfg.PersistDir = ""
	rep, err := zkv.ReplayEquivByName("canneal", cfg, 200_000)
	if err != nil {
		return err
	}
	verdict := "MATCH"
	if !rep.Match {
		verdict = "DIVERGED " + rep.Detail
	}
	out.check("replay_equiv", rep.Match, "canneal %d accesses, %d victims on the serving geometry: %s",
		rep.Accesses, rep.Victims, verdict)
	return nil
}

// serveLayers starts a per-layer map for a serving workload: the simulator
// layers did no work, and the shed counters come from the server.
func serveLayers(s *session) map[string]float64 {
	layers := map[string]float64{}
	zeroOtherSystem(layers, "serve")
	ss := s.srv.ShedStats()
	layers["server.shed_requests"] = float64(ss.ShedRequests)
	layers["server.shed_conns"] = float64(ss.ShedConns)
	return layers
}
