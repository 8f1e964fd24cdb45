package zcluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"zcache/internal/hash"
	"zcache/internal/zkvproto"
)

// LoadConfig drives RunLoad, the load generator behind zkvbench: pipelined
// mixed GET/SET traffic routed through a shared ring, optionally with R=2
// write fan-out, oracle verification, and a mid-run live reshard. A single
// zcached is a one-node ring.
type LoadConfig struct {
	// Cluster configures routing and replication. Cluster.Options.Seed and
	// per-client derivation keep every connection's retry jitter
	// deterministic; Cluster.Router, if set, is shared with the caller
	// (zkvbench uses that to watch the flip).
	Cluster Config
	// Clients is the number of concurrent measured clients (default 4).
	// Each owns one pipelined connection per node it talks to.
	Clients int
	// Ops is the total measured operation count across clients
	// (default 100000). Replica writes ride along and are accounted
	// separately.
	Ops int
	// KeySpace is the number of distinct keys (default 65536).
	KeySpace int
	// ValBytes is the SET payload size before stamping (default 64).
	ValBytes int
	// GetFrac in [0,1] is the fraction of GETs (default 0.9).
	GetFrac float64
	// Pipeline is the number of measured requests per burst (default 16;
	// 1 means strict request/response).
	Pipeline int
	// Seed makes key sequences and backoff jitter reproducible.
	Seed uint64
	// OpTimeout bounds each pipelined burst per node (queue, flush,
	// replies). 0 means no deadline — only safe against a healthy
	// network; any blackhole-style fault needs a timeout to convert a
	// hang into a classified, retryable error.
	OpTimeout time.Duration
	// Oracle makes SET payloads self-certifying — derived from the key
	// alone — and verifies every GET hit; any mismatch counts in
	// WrongGets. Self-certifying payloads are also what make retries and
	// replica fan-out harmless.
	Oracle bool
	// JoinNode, when non-empty, is a node added to the ring *live*, by a
	// controller goroutine, once JoinAfterOps measured operations have
	// completed cluster-wide — the reshard-under-load scenario. The load
	// keeps running through copy, flip, delta, and forget.
	JoinNode      string
	JoinAfterOps  int
	JoinPageBytes int
	// Writers is the number of dedicated all-SET connections kept
	// saturated for the duration of the run (default 0). They model
	// relocation-chain pressure: the measured clients' percentiles then
	// show how readers behave while walks are in flight. Writer
	// operations are reported separately and excluded from Ops and the
	// latency percentiles. One-node clusters only.
	Writers int
	// Stall opens this many extra connections that never send a request
	// and never read, held open for the whole run — the stalled-reader
	// scenario the server's deadlines must absorb. One-node clusters only.
	Stall int
}

func (c LoadConfig) withDefaults() (LoadConfig, error) {
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.Ops == 0 {
		c.Ops = 100000
	}
	if c.KeySpace == 0 {
		c.KeySpace = 65536
	}
	if c.ValBytes == 0 {
		c.ValBytes = 64
	}
	if c.GetFrac == 0 {
		c.GetFrac = 0.9
	}
	if c.GetFrac < 0 || c.GetFrac > 1 {
		return c, fmt.Errorf("zcluster: get fraction %v outside [0,1]", c.GetFrac)
	}
	if c.Pipeline == 0 {
		c.Pipeline = 16
	}
	if c.Clients < 0 || c.Ops < 0 || c.KeySpace < 1 || c.ValBytes < 0 ||
		c.Pipeline < 1 || c.OpTimeout < 0 || c.JoinAfterOps < 0 ||
		c.Writers < 0 || c.Stall < 0 {
		return c, fmt.Errorf("zcluster: invalid load config %+v", c)
	}
	if c.Writers > 0 || c.Stall > 0 {
		nodes := c.Cluster.Nodes
		if c.Cluster.Router != nil {
			nodes = c.Cluster.Router.Ring().Nodes()
		}
		if len(nodes) != 1 || c.JoinNode != "" {
			return c, fmt.Errorf("zcluster: writers and stalled connections need a one-node cluster")
		}
	}
	return c, nil
}

// NodeLatency is one node's slice of the measured traffic.
type NodeLatency struct {
	Ops                  int
	P50, P99, P999, PMax time.Duration
}

// latencyOf summarizes an ascending-sorted, non-empty latency slice.
func latencyOf(sorted []time.Duration) NodeLatency {
	return NodeLatency{
		Ops: len(sorted),
		P50: percentile(sorted, 0.50), P99: percentile(sorted, 0.99),
		P999: percentile(sorted, 0.999), PMax: sorted[len(sorted)-1],
	}
}

// LoadReport is RunLoad's outcome.
type LoadReport struct {
	Ops       int
	Gets      int
	Sets      int
	Hits      int
	Misses    int
	Errors    int
	Wall      time.Duration
	OpsPerSec float64

	// Per-op latency percentiles (and the maximum) across every completed
	// operation, measured from the moment the request is queued to the
	// moment its reply is decoded — so pipeline queueing shows up in the
	// tail, exactly as a caller would experience it. Zero when no ops ran.
	P50, P99, P999, PMax time.Duration

	// Failure accounting by class. Timeouts/Resets/ProtoErrors/
	// Unclassified count transport failure events (one burst-killing
	// reset is one reset, however many ops it clipped); Busys counts
	// StatusBusy shed replies; Ambiguous counts mutations clipped
	// mid-pipeline (surfaced per the ErrAmbiguous contract, then
	// re-issued — self-certifying values make the re-issue harmless);
	// Retried counts ops re-queued for another attempt; Reconnects counts
	// successful re-dials.
	Timeouts, Resets, Busys, ProtoErrors, Unclassified int
	Ambiguous, Retried, Reconnects                     int

	// Oracle accounting: GET hits whose payload matched the key-derived
	// pattern, and those that did not. Any WrongGets is a correctness
	// failure of the serving path.
	VerifiedGets, WrongGets int

	// Failovers counts GET attempts rerouted to the key's replica after a
	// primary-side transport failure.
	Failovers int
	// ReplicaSets and ReplicaErrors account the R=2 write fan-out;
	// excluded from Ops and the percentiles.
	ReplicaSets, ReplicaErrors int

	// WriterSets and WriterErrors aggregate the background writer
	// connections (LoadConfig.Writers); excluded from Ops and the
	// percentiles.
	WriterSets, WriterErrors int

	// PerNode breaks the measured latencies down by serving node — the
	// per-node tail view zkvbench prints. Keys are node names.
	PerNode map[string]NodeLatency

	// Reshard is the mid-run join's report (nil when none was requested).
	Reshard *ReshardReport
}

// oracleFill writes the self-certifying payload for key: every byte is a
// pure function of the key, so any GET can be verified with no shared
// state — by this process, another client, or a later run with the same
// value size.
func oracleFill(buf []byte, key uint64) {
	x := hash.Mix64(key ^ 0x5ca1ab1e0ddba11)
	for i := range buf {
		x = x*6364136223846793005 + 1442695040888963407
		buf[i] = byte(x >> 56)
	}
}

// percentile reads the q-quantile from an ascending-sorted latency slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// maxConsecutiveRedials bounds how long a client hammers a dead node
// before giving up and failing the run.
const maxConsecutiveRedials = 30

// redialBackoff is the jittered exponential pause before redial n,
// deterministic in (seed, n).
func redialBackoff(seed uint64, n int) time.Duration {
	return zkvproto.Backoff(seed, uint64(n), n+1, 2*time.Millisecond, 300*time.Millisecond)
}

// opRec is one measured operation. tries counts terminalless attempts:
// a GET whose primary keeps failing alternates to the replica on odd
// tries (client-side failover), and the record re-enters the backlog
// verbatim so the workload stays deterministic under faults.
type opRec struct {
	get   bool
	key   uint64
	tries int
}

// classCounts is the per-client failure tally merged into the LoadReport.
type classCounts struct {
	timeouts, resets, busys, protoErrs, unclassified int
	ambiguous, retried, reconnects                   int
}

// countEvent tallies one transport failure event by class.
func (cc *classCounts) countEvent(class zkvproto.Class) {
	switch class {
	case zkvproto.ClassTimeout:
		cc.timeouts++
	case zkvproto.ClassReset:
		cc.resets++
	case zkvproto.ClassProtocol:
		cc.protoErrs++
	default:
		cc.unclassified++
	}
}

// clientResult is one measured client's tally.
type clientResult struct {
	gets, sets, hits, misses, errs int
	verified, wrong                int
	failovers                      int
	replicaSets, replicaErrs       int
	cc                             classCounts
	pipes                          []*pipe
	err                            error
}

// RunLoad drives cfg.Ops measured operations through the ring from
// cfg.Clients concurrent clients, each pipelining per-node bursts, and —
// when a join is configured — reshards the cluster mid-run. Every
// generated operation completes with a terminal reply (the completed
// count is the dropped-request check: it equals Ops or the run errors).
// Faults (timeouts, resets, StatusBusy sheds) are classified, counted, and
// retried — GETs transparently, mutations via the ambiguous-then-reissue
// path — rather than failing the run, and the report carries per-node
// latency breakdowns. RunLoad returns an error only for setup failures, a
// client that lost a node entirely, or a dropped operation. A node that
// refuses its first dial gets the same backed-off redial budget as one
// that dropped, so an unreachable address fails the run after a few
// seconds rather than at once.
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return LoadReport{}, err
	}
	ccfg, err := cfg.Cluster.withDefaults()
	if err != nil {
		return LoadReport{}, err
	}
	router := ccfg.Router
	if router == nil {
		ring, err := NewRing(ccfg.Nodes, ccfg.VNodes)
		if err != nil {
			return LoadReport{}, err
		}
		router = NewRouter(ring)
		ccfg.Router = router
	}
	// Writers and stalled connections talk to the one node withDefaults
	// guarantees when either is on.
	addr := ccfg.dialAddr(router.Ring().Nodes()[0])

	// Stalled readers: connect, then do nothing for the whole run. The
	// server's idle/drain deadlines are what get them off the books.
	for i := 0; i < cfg.Stall; i++ {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return LoadReport{}, fmt.Errorf("zcluster: stall conn %d: %w", i, err)
		}
		defer conn.Close()
	}

	var (
		completed atomic.Int64
		results   = make([]clientResult, cfg.Clients)
		wresults  = make([]writerResult, cfg.Writers)
		stop      = make(chan struct{}) // closed when the measured clients finish
		bg        sync.WaitGroup        // the join controller and the writers
		joinRep   *ReshardReport
		joinErr   error
	)
	// The join controller: wait for the op threshold, then drain an arc
	// set onto the new node while the measured clients keep hammering.
	if cfg.JoinNode != "" {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for completed.Load() < int64(cfg.JoinAfterOps) {
				select {
				case <-stop:
					return // run ended (or failed) before the threshold
				case <-time.After(time.Millisecond):
				}
			}
			joinOpts := ccfg
			joinOpts.Options.Seed = hash.Mix64(cfg.Seed ^ 0xc0ffee)
			ctl, err := New(joinOpts)
			if err != nil {
				joinErr = err
				return
			}
			defer ctl.Close()
			joinRep, joinErr = ctl.AddNode(cfg.JoinNode, ReshardOpts{PageBytes: cfg.JoinPageBytes})
		}()
	}
	// Background writers run until the measured clients finish, keeping
	// eviction walks and relocation chains in flight for the whole
	// measurement window.
	for wi := range wresults {
		bg.Add(1)
		go func() {
			defer bg.Done()
			wresults[wi] = runWriter(cfg, ccfg, addr, wi, stop)
		}()
	}

	var wg sync.WaitGroup
	start := time.Now()
	for ci := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[ci] = runClusterClient(cfg, ccfg, router, ci, &completed)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(stop)
	bg.Wait()

	rep := LoadReport{Wall: wall, PerNode: make(map[string]NodeLatency)}
	for i := range wresults {
		r := &wresults[i]
		if r.err != nil {
			return rep, fmt.Errorf("zcluster: load writer %d: %w", i, r.err)
		}
		rep.WriterSets += r.sets
		rep.WriterErrors += r.errs
		rep.Reconnects += r.reconnects
	}
	nodeLats := make(map[string][]time.Duration)
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return rep, fmt.Errorf("zcluster: load client %d: %w", i, r.err)
		}
		rep.Gets += r.gets
		rep.Sets += r.sets
		rep.Hits += r.hits
		rep.Misses += r.misses
		rep.Errors += r.errs
		rep.VerifiedGets += r.verified
		rep.WrongGets += r.wrong
		rep.Failovers += r.failovers
		rep.ReplicaSets += r.replicaSets
		rep.ReplicaErrors += r.replicaErrs
		rep.Timeouts += r.cc.timeouts
		rep.Resets += r.cc.resets
		rep.Busys += r.cc.busys
		rep.ProtoErrors += r.cc.protoErrs
		rep.Unclassified += r.cc.unclassified
		rep.Ambiguous += r.cc.ambiguous
		rep.Retried += r.cc.retried
		rep.Reconnects += r.cc.reconnects
		for _, p := range r.pipes {
			if len(p.lats) > 0 {
				nodeLats[p.node] = append(nodeLats[p.node], p.lats...)
			}
		}
	}
	rep.Ops = rep.Gets + rep.Sets
	if wall > 0 {
		rep.OpsPerSec = float64(rep.Ops) / wall.Seconds()
	}
	var all []time.Duration
	for node, ls := range nodeLats {
		slices.Sort(ls)
		rep.PerNode[node] = latencyOf(ls)
		all = append(all, ls...)
	}
	if len(nodeLats) > 1 {
		slices.Sort(all) // each node's run is sorted, their concatenation is not
	}
	if len(all) > 0 {
		l := latencyOf(all)
		rep.P50, rep.P99, rep.P999, rep.PMax = l.P50, l.P99, l.P999, l.PMax
	}
	if cfg.JoinNode != "" {
		rep.Reshard = joinRep
		if joinErr != nil {
			return rep, fmt.Errorf("zcluster: mid-run join: %w", joinErr)
		}
		if joinRep == nil {
			return rep, fmt.Errorf("zcluster: run finished before the join threshold (%d ops) was reached", cfg.JoinAfterOps)
		}
	}
	if rep.Ops != cfg.Ops {
		// The in-flight guarantee: every generated op reached a terminal
		// reply despite faults, failovers, and the routing flip.
		return rep, fmt.Errorf("zcluster: completed %d of %d ops", rep.Ops, cfg.Ops)
	}
	return rep, nil
}

// writerResult is one background writer's tally.
type writerResult struct {
	sets, errs, reconnects int
	err                    error
}

// runWriter is one background writer's life: all-SET bursts to addr until
// stop closes, answering any failure by reconnecting and pressing on. Its
// payloads are the oracle's, stamped from a version range disjoint from
// every measured client's, so the measured clients' reads verify them.
func runWriter(cfg LoadConfig, ccfg Config, addr string, wi int, stop <-chan struct{}) (res writerResult) {
	// A distinct salt keeps writer key streams decorrelated from the
	// measured clients'.
	rng := hash.Mix64(cfg.Seed ^ 0xa5a5a5a55a5a5a5a ^ (uint64(wi)+1)*0x9e3779b97f4a7c15)
	opts := ccfg.Options
	opts.Seed = rng
	cl, err := zkvproto.DialOptions(addr, opts)
	if err != nil {
		res.err = err
		return res
	}
	defer cl.Close()
	version := ccfg.StampBase + uint64(cfg.Clients+wi+1)<<40
	key := make([]byte, 8)
	val := make([]byte, cfg.ValBytes)
	env := make([]byte, 0, cfg.ValBytes+zkvproto.StampLen)
	redials := 0
	for {
		select {
		case <-stop:
			return res
		default:
		}
		if cfg.OpTimeout > 0 {
			cl.SetDeadline(time.Now().Add(cfg.OpTimeout))
		}
		burstErr := func() error {
			for b := 0; b < cfg.Pipeline; b++ {
				rng ^= rng >> 12
				rng ^= rng << 25
				rng ^= rng >> 27
				k := rng * 0x2545f4914f6cdd1d % uint64(cfg.KeySpace)
				binary.BigEndian.PutUint64(key, k)
				if cfg.Oracle {
					oracleFill(val, k)
				}
				version++
				env = zkvproto.AppendStamped(env[:0], version, val)
				if err := cl.QueueSet(key, env); err != nil {
					return err
				}
			}
			if err := cl.Flush(); err != nil {
				return err
			}
			for b := 0; b < cfg.Pipeline; b++ {
				resp, err := cl.ReadReply()
				if err != nil {
					return err
				}
				switch resp.Status {
				case zkvproto.StatusOK:
					res.sets++
				case zkvproto.StatusBusy:
					// Shed, not executed; the writer pool is unmetered
					// pressure, so just move on.
				default:
					res.errs++
				}
			}
			return nil
		}()
		if burstErr == nil {
			redials = 0
			continue
		}
		for {
			select {
			case <-stop:
				return res
			default:
			}
			if err := cl.Reconnect(); err == nil {
				res.reconnects++
				redials = 0
				break
			}
			redials++
			if redials >= maxConsecutiveRedials {
				res.err = burstErr
				return res
			}
			time.Sleep(redialBackoff(rng, redials))
		}
	}
}

// pipe is one measured client's pipelined connection to one node: the
// burst's queued requests and every latency the node has served.
type pipe struct {
	node   string
	cl     *zkvproto.Client // nil until first dialed
	q      []qop
	failed bool // the transport failed during this burst
	lats   []time.Duration
}

// qop is one queued request awaiting its reply on some node's pipe.
type qop struct {
	op      opRec
	at      time.Time
	replica bool // an R=2 fan-out SET: unmeasured redundancy
}

// runClusterClient is one measured client's whole life. Each burst is
// routed through the router's *current* ring — so a mid-run flip simply
// changes where the next burst goes — partitioned into per-node pipelines,
// flushed, and drained. A node whose pipe fails gets its unanswered
// measured ops re-queued (GETs alternating onto the replica when
// replication allows) while other nodes' replies still count.
func runClusterClient(cfg LoadConfig, ccfg Config, router *Router, ci int, completed *atomic.Int64) (res clientResult) {
	rng := hash.Mix64(cfg.Seed ^ (uint64(ci)+1)*0x9e3779b97f4a7c15)
	jitterSeed := rng
	defer func() {
		for _, p := range res.pipes {
			if p.cl != nil {
				p.cl.Close()
			}
		}
	}()
	// dial connects p to its node, with a jitter seed derived from the
	// client's and the node name.
	dial := func(p *pipe) error {
		opts := ccfg.Options
		opts.Seed = hash.Mix64(jitterSeed ^ hash.Bytes64([]byte(p.node)))
		cl, err := zkvproto.DialOptions(ccfg.dialAddr(p.node), opts)
		p.cl = cl
		return err
	}
	ops := cfg.Ops / cfg.Clients
	if ci < cfg.Ops%cfg.Clients {
		ops++
	}
	// On a one-node ring every measured op's latency lands in one pipe,
	// sized up front so recording never grows it. On a larger ring each
	// node's share grows as it arrives, and replica-only pipes stay empty.
	oneNode := len(router.Ring().nodes) == 1
	// pipeOf returns node's pipe, dialing it on first use. A client has
	// one pipe per node it has talked to, so a linear scan finds it; on a
	// 3-node ring the scan is under 1% of the client's CPU.
	pipeOf := func(node string) (*pipe, error) {
		var p *pipe
		for _, q := range res.pipes {
			if q.node == node {
				p = q
				break
			}
		}
		if p == nil {
			p = &pipe{node: node}
			if oneNode {
				p.lats = make([]time.Duration, 0, ops)
			}
			res.pipes = append(res.pipes, p)
		}
		if p.cl == nil {
			return p, dial(p)
		}
		return p, nil
	}
	// GetFrac as a threshold over the low 16 bits of the op's random
	// draw: deterministic, no float per op.
	getCut := uint64(cfg.GetFrac * 65536)
	// Disjoint stamp ranges per client keep cross-client versions from
	// colliding; the payload is key-derived either way.
	version := ccfg.StampBase + (uint64(ci)+1)<<40
	key := make([]byte, 8)
	val := make([]byte, cfg.ValBytes)
	expect := make([]byte, cfg.ValBytes)
	env := make([]byte, 0, cfg.ValBytes+zkvproto.StampLen)
	burst := make([]opRec, 0, cfg.Pipeline)
	var backlog []opRec // clipped/shed ops awaiting re-issue
	generated, done, redials := 0, 0, 0
	consecFails := 0 // bursts failed in a row; paces the redial storm

	// requeue marks pipe p failed for this burst, sends every unanswered
	// measured op on it from index from on back through the backlog
	// (replies before from were terminal), and re-dials its node with
	// seeded backoff. Returns false when the node stays unreachable
	// past the redial budget.
	requeue := func(p *pipe, from int, err error) bool {
		res.cc.countEvent(zkvproto.Classify(err))
		p.failed = true
		for _, q := range p.q[from:] {
			if q.replica {
				res.replicaErrs++
				continue
			}
			if !q.op.get {
				// The mutation may or may not have executed: the
				// ambiguity contract. Self-certifying values make the
				// re-issue harmless.
				res.cc.ambiguous++
			}
			res.cc.retried++
			q.op.tries++
			backlog = append(backlog, q.op)
		}
		p.q = p.q[:0]
		// Back off before re-dialing when failures are consecutive:
		// without this, a shed-then-close from an exhausted server pool
		// turns into a reconnect hammer that keeps the pool exhausted.
		consecFails++
		if consecFails > 1 {
			time.Sleep(redialBackoff(jitterSeed^0xf00d, consecFails-1))
		}
		for {
			// A node never reached gets the same redial budget as one
			// that dropped, but only re-dials count as reconnects.
			redial := p.cl != nil
			if redial {
				err = p.cl.Reconnect()
			} else {
				err = dial(p)
			}
			if err == nil {
				if redial {
					res.cc.reconnects++
				}
				redials = 0
				return true
			}
			redials++
			if redials >= maxConsecutiveRedials {
				res.err = fmt.Errorf("node %s unreachable after %d redials: %w", p.node, redials, err)
				return false
			}
			time.Sleep(redialBackoff(jitterSeed, redials))
		}
	}

	for done < ops {
		// Assemble the burst: clipped ops first, fresh after.
		doneBefore := done
		burst = burst[:0]
		for len(burst) < cfg.Pipeline && len(backlog) > 0 {
			burst = append(burst, backlog[len(backlog)-1])
			backlog = backlog[:len(backlog)-1]
		}
		for len(burst) < cfg.Pipeline && generated < ops {
			// xorshift64*
			rng ^= rng >> 12
			rng ^= rng << 25
			rng ^= rng >> 27
			draw := rng * 0x2545f4914f6cdd1d
			burst = append(burst, opRec{get: draw>>48&0xffff < getCut, key: draw % uint64(cfg.KeySpace)})
			generated++
		}

		// Partition by node under the current ring and queue the frames.
		ring := router.Ring()
		for _, p := range res.pipes {
			p.q, p.failed = p.q[:0], false
		}
		for _, op := range burst {
			binary.BigEndian.PutUint64(key, op.key)
			pri, rep := ring.PrimaryReplica(PointOf(key))
			r2 := ccfg.Replication == 2 && rep != pri
			node := pri
			if op.get && r2 && op.tries%2 == 1 {
				// Failover: this GET's primary already ate an attempt.
				node = rep
				res.failovers++
			}
			p, err := pipeOf(node)
			if p.failed {
				op.tries++
				res.cc.retried++
				backlog = append(backlog, op)
				continue
			}
			if err == nil {
				if cfg.OpTimeout > 0 && len(p.q) == 0 {
					p.cl.SetDeadline(time.Now().Add(cfg.OpTimeout))
				}
				if op.get {
					err = p.cl.QueueGet(key)
				} else {
					if cfg.Oracle {
						oracleFill(val, op.key)
					}
					version++
					env = zkvproto.AppendStamped(env[:0], version, val)
					err = p.cl.QueueSet(key, env)
				}
			}
			if err != nil {
				if !requeue(p, 0, err) {
					return res
				}
				op.tries++
				res.cc.retried++
				if !op.get {
					res.cc.ambiguous++
				}
				backlog = append(backlog, op)
				continue
			}
			p.q = append(p.q, qop{op: op, at: time.Now()})
			// R=2 write fan-out rides the same burst on the replica's pipe.
			if !op.get && r2 {
				rp, rerr := pipeOf(rep)
				switch {
				case rp.failed:
				case rerr != nil:
					res.replicaErrs++
				default:
					if cfg.OpTimeout > 0 && len(rp.q) == 0 {
						rp.cl.SetDeadline(time.Now().Add(cfg.OpTimeout))
					}
					if rerr := rp.cl.QueueSet(key, env); rerr != nil {
						if !requeue(rp, 0, rerr) {
							return res
						}
					} else {
						rp.q = append(rp.q, qop{op: op, at: time.Now(), replica: true})
					}
				}
			}
		}

		// Flush, then drain each node's pipe in queue order. A failed
		// pipe's queue is already empty.
		burstOK := true
		for _, p := range res.pipes {
			if len(p.q) == 0 {
				continue
			}
			if err := p.cl.Flush(); err != nil {
				burstOK = false
				if !requeue(p, 0, err) {
					return res
				}
			}
		}
		for _, p := range res.pipes {
			for qi, rec := range p.q {
				resp, err := p.cl.ReadReply()
				if err != nil {
					burstOK = false
					if !requeue(p, qi, err) {
						return res
					}
					break
				}
				if rec.replica {
					if resp.Status == zkvproto.StatusOK {
						res.replicaSets++
					} else {
						res.replicaErrs++
					}
					continue
				}
				if resp.Status == zkvproto.StatusBusy {
					// Shed, not executed: retry is safe for any op.
					res.cc.busys++
					res.cc.retried++
					rec.op.tries++
					backlog = append(backlog, rec.op)
					continue
				}
				p.lats = append(p.lats, time.Since(rec.at))
				done++
				switch {
				case rec.op.get && resp.Status == zkvproto.StatusOK:
					res.gets++
					res.hits++
					if cfg.Oracle {
						oracleFill(expect, rec.op.key)
						_, payload := versionOf(resp.Val)
						if bytes.Equal(payload, expect) {
							res.verified++
						} else {
							res.wrong++
						}
					}
				case rec.op.get && resp.Status == zkvproto.StatusNotFound:
					res.gets++
					res.misses++
				case !rec.op.get && resp.Status == zkvproto.StatusOK:
					res.sets++
				default:
					res.errs++
				}
			}
		}
		// Published once per burst: a shared counter bumped per op
		// bounces its cache line between the clients.
		completed.Add(int64(done - doneBefore))
		if burstOK {
			consecFails = 0
		}
	}
	return res
}
