package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"zcache/internal/zkvproto"
)

// serve-churn: an open loop over serveConns connections at each rate of a
// fixed geometric ladder, against a persisting store that is full before
// timing starts. Zipf keys over churnKeysPerSlot times the capacity; 50%
// GET, 45% SET, 5% DEL. Every SET of a missing key runs a replacement
// walk, a relocation chain, a cell publish and a slotstore mirror while
// GETs race the writers on the seqlock. Latency runs from each request's
// due time, so a stall is charged to every request it delays.

const (
	churnKeysPerSlot = 4
	latencyLimit     = time.Millisecond // the p99 a ladder step must meet
	maxOutstanding   = 512              // per connection; keeps a burst under the server's pipeline bound
	sendBurst        = 64               // due requests written per flush at most
	drainGrace       = 2 * time.Second  // after a step, how long replies may still arrive
	stepWindows      = 6                // latency is kept per sixth of a step (about 90 ms)
	churnSweeps      = 4                // times the ladder is climbed; each rate pools its steps
)

var churnMix = mix{get: 0.50, set: 0.45}

// churnRates is the offered-rate ladder (ops/s over both connections),
// doubling from 10k/s to past the store's closed-loop capacity on a 2-vCPU
// VM (about 320k/s). It is fixed so that runs of different builds offer
// identical load; a climb stops at its first step whose backlog grows.
var churnRates = []float64{10_000, 20_000, 40_000, 80_000, 160_000, 320_000, 640_000}

// The three reported rates, as ladder indices, all below saturation; the
// middle one also gives the workload's p50.
const (
	churnLow  = 1
	churnMid  = 2
	churnHigh = 3
)

// olConn is one open-loop connection; its op ring position carries over
// from step to step.
type olConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	ops  []op
	next int
}

// stepResult is one ladder step.
type stepResult struct {
	rate       float64
	start, end time.Time // the schedule's start; when the last reply arrived or was given up
	dur        time.Duration
	windows    []latHist // latency from due time to reply, per stepWindows part of the step
	late       latHist   // from due time to the request's write
	sent       int64
	tally      replyTally
	unanswered int64
	backlogMax int64 // due but unanswered requests, sampled at each send
	backlogEnd int64 // the same when the schedule ended
	flushes    int64
	broken     bool
}

// grew reports a growing backlog: at the schedule's end more requests are
// waiting than 5 ms of offered load (and at least 256).
func (s *stepResult) grew() bool {
	return float64(s.backlogEnd) > max(256, s.rate*0.005)
}

// rateStats pools the steps of one ladder rate across climbs. Its p50 and
// p99 summarize the per-window values of those steps (see windowSet).
type rateStats struct {
	rate             float64
	steps, grew, bad int // steps run, with a growing backlog, with a failed request
	winP50, winP99   windowSet
	late             latHist
	backlogMax       int64
	p50, p99         float64 // microseconds
}

// add folds a finished step in; steal must already cover the step's span.
func (r *rateStats) add(st *stepResult, steal *stealLog) {
	r.rate = st.rate
	r.steps++
	if st.grew() {
		r.grew++
	}
	if st.tally.failed > 0 || st.unanswered > 0 || st.broken {
		r.bad++
	}
	for i := range st.windows {
		w := &st.windows[i]
		if w.n == 0 {
			continue
		}
		from := st.start.Add(st.dur * time.Duration(i) / stepWindows)
		to := st.start.Add(st.dur * time.Duration(i+1) / stepWindows)
		if i == len(st.windows)-1 {
			to = st.end
		}
		disturbed := steal.stolen(from, to)
		r.winP50.add(w.quantile(0.5), disturbed)
		r.winP99.add(w.quantile(0.99), disturbed)
	}
	r.late.merge(&st.late)
	r.backlogMax = max(r.backlogMax, st.backlogMax)
	r.p50, r.p99 = r.winP50.low(), r.winP99.low()
}

// pass reports whether the rate meets the latency limit with no failed
// request, and without a growing backlog in most of its steps.
func (r *rateStats) pass() bool {
	return r.steps > 0 && 2*r.grew < r.steps && r.bad == 0 &&
		r.p99 <= float64(latencyLimit.Microseconds())
}

type inflight struct {
	o   op
	due time.Time
}

// openLoopStep offers rate ops/s split evenly over the connections for
// dur, then waits up to drainGrace for the replies.
func openLoopStep(cs []*olConn, ks *keySpace, rate float64, dur time.Duration, tr *tracer, stepID uint64) stepResult {
	interval := time.Duration(float64(time.Second) * float64(len(cs)) / rate)
	start := time.Now().Add(time.Millisecond)
	res := stepResult{rate: rate, start: start, dur: dur}
	deadline := start.Add(dur + drainGrace)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for ci, c := range cs {
		c.conn.SetReadDeadline(deadline)
		var answered atomic.Int64
		q := make(chan inflight, maxOutstanding) // the in-flight window
		offset := interval * time.Duration(ci) / time.Duration(len(cs))
		wg.Add(2)
		go func() { // sender
			defer wg.Done()
			var req zkvproto.Request
			var late latHist
			var sent, backlogMax, flushes int64
			var werr error
			pc, err := newPacer(pacerPeriod)
			if err != nil {
				werr = err
			} else {
				defer pc.close()
			}
			flush := func() {
				h := tr.begin("zkvproto.flush", -1, stepID)
				if err := c.bw.Flush(); err != nil && werr == nil {
					werr = err
				}
				tr.end(h)
				flushes++
			}
			for werr == nil {
				now := time.Now()
				el := now.Sub(start) - offset
				if el >= dur {
					break
				}
				due := int64(0)
				if el >= 0 {
					due = int64(el/interval) + 1
				}
				if sent >= due {
					werr = pc.wait()
					continue
				}
				backlogMax = max(backlogMax, due-answered.Load())
				for k := 0; k < sendBurst && sent < due && werr == nil; k++ {
					rec := inflight{o: c.ops[c.next&(len(c.ops)-1)], due: start.Add(offset + time.Duration(sent)*interval)}
					c.next++
					select {
					case q <- rec:
					default: // window full: push out what is buffered, then wait for room
						flush()
						q <- rec
					}
					request(&req, ks, rec.o)
					werr = req.WriteTo(c.bw)
					late.add(time.Since(rec.due))
					sent++
				}
				flush()
			}
			scheduled := int64((dur - offset + interval - 1) / interval)
			backlogEnd := scheduled - answered.Load()
			close(q)
			mu.Lock()
			defer mu.Unlock()
			res.late.merge(&late)
			res.sent += sent
			res.backlogMax = max(res.backlogMax, backlogMax)
			res.backlogEnd += max(backlogEnd, 0)
			res.flushes += flushes
			if werr != nil {
				res.broken = true
				res.tally.fail("write: %v", werr)
			}
		}()
		go func() { // receiver
			defer wg.Done()
			var resp zkvproto.Response
			win := make([]latHist, stepWindows)
			var tally replyTally
			var unanswered int64
			broken := false
			for rec := range q {
				if broken {
					unanswered++
					continue
				}
				h := int32(-1)
				if c.br.Buffered() == 0 {
					h = tr.begin("zkvproto.reply_wait", -1, stepID)
				}
				err := resp.ReadFrom(c.br)
				tr.end(h)
				if err != nil {
					broken = true
					unanswered++
					tally.fail("read reply: %v", err)
					continue
				}
				now := time.Now()
				wi := min(int(now.Sub(start)*stepWindows/dur), stepWindows-1)
				win[max(wi, 0)].add(now.Sub(rec.due))
				answered.Add(1)
				tally.note(ks, rec.o, &resp)
			}
			mu.Lock()
			defer mu.Unlock()
			if res.windows == nil {
				res.windows = make([]latHist, stepWindows)
			}
			for i := range win {
				res.windows[i].merge(&win[i])
			}
			res.tally.add(tally)
			res.unanswered += unanswered
			res.broken = res.broken || broken
		}()
	}
	wg.Wait()
	res.end = time.Now()
	return res
}

// maxSustainable interpolates the highest rate meeting the latency limit:
// between the highest passing rate and the rate above it, log-linearly in
// rate against p99. A ladder whose top rate passes reports that rate; one
// with no passing rate extrapolates below the first.
func maxSustainable(rates []rateStats) (rate float64, ladderRate float64) {
	limit := float64(latencyLimit.Microseconds())
	best := -1
	for i := range rates {
		if rates[i].pass() {
			best = i
		}
	}
	if best < 0 {
		return rates[0].rate * limit / max(rates[0].p99, limit), 0
	}
	b := rates[best]
	if best == len(rates)-1 {
		return b.rate, b.rate
	}
	n := rates[best+1]
	p99n := max(n.p99, limit*1.01)
	f := math.Log(limit/max(b.p99, 1)) / math.Log(p99n/max(b.p99, 1))
	f = min(max(f, 0), 1)
	return b.rate * math.Pow(n.rate/b.rate, f), b.rate
}

func runServeChurn(opt options, _ simSuite, w io.Writer) (_ *outcome, err error) {
	capacity, err := zcachedCapacity()
	if err != nil {
		return nil, err
	}
	keys := churnKeysPerSlot * capacity
	ks := newKeySpace(opt.seed, keys)
	streams := make([][]op, serveConns)
	for c := range streams {
		streams[c] = opStream(opt.seed, c, keys, churnMix, streamOps)
	}
	// Fill with twice the capacity of distinct keys, coldest first, so the
	// store is full and holds the hot end of the key space.
	fillRanks := make([]uint32, 2*capacity)
	for i := range fillRanks {
		fillRanks[i] = uint32(len(fillRanks) - 1 - i)
	}
	// Three quarters of the run climb the ladder; the last quarter is a
	// closed loop on the same stream, whose request rate is the store's
	// capacity under churn.
	stepDur := time.Duration(0.75 * opt.seconds * float64(time.Second) / float64(churnSweeps*len(churnRates)))
	closedDur := time.Duration(0.25 * opt.seconds * float64(time.Second))
	fmt.Fprintf(w, "serve-churn: open loop, %d connections (sender+receiver each), %d Zipf(%.2f) keys over %d capacity, %d-byte values, persistence on\n",
		serveConns, keys, zipfTheta, capacity, valBytes)
	fmt.Fprintf(w, "serve-churn: ladder %v ops/s climbed %d times, %s per step, p99 limit %s\n",
		churnRates, churnSweeps, stepDur.Round(time.Millisecond), latencyLimit)

	s, setupS, err := setupMedian(setupRounds,
		func() (*session, error) { return openSession(opt.scratch, true, ks, fillRanks) },
		(*session).close)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := s.close(); cerr != nil && err == nil {
			err = fmt.Errorf("close session: %w", cerr)
		}
	}()
	out := &outcome{e2e: map[string]float64{"setup_s": setupS}}
	fmt.Fprintf(w, "setup_s %.6f s (median of %d; store open with persistence %.6f s)\n", setupS, setupRounds, s.openDur.Seconds())
	st := s.store.Stats()
	out.check("cache_full", st.Resident >= st.Capacity*99/100, "%d resident of %d before timing", st.Resident, st.Capacity)

	cs := make([]*olConn, len(s.conns))
	for i, c := range s.conns {
		cs[i] = &olConn{conn: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10), ops: streams[i]}
	}
	rates, total := runLadder(w, cs, ks, stepDur)
	out.attempted = total.sent
	out.failed = total.tally.failed + total.unanswered

	conns := make([]net.Conn, len(cs))
	for i, c := range cs {
		conns[i] = c.conn
		c.conn.SetReadDeadline(time.Time{})
	}
	steal := startStealLog()
	closed := closedLoop(conns, streams, ks, closedDur, nil)
	steal.close()
	capacityRate, _, _, capHow := windowStats(&closed, closedDur, steal)
	out.attempted += closed.ops
	out.failed += closed.tally.failed
	out.check("closed_loop", len(closed.errs) == 0, "%v", closed.errs)

	maxRate, ladderRate := maxSustainable(rates)
	hitRatio := float64(total.tally.hits+closed.tally.hits) / float64(max(total.tally.gets+closed.tally.gets, 1))
	mid := rateAt(rates, churnMid)
	out.e2e["throughput_per_s"] = capacityRate
	out.e2e["p50_us"] = mid.p50
	// The gated p99 pools the windows of the three reported rates, all
	// below saturation, so it rests on 72 windows, not 24.
	var pooled windowSet
	for i := churnLow; i <= churnHigh && i < len(rates); i++ {
		pooled.merge(&rates[i].winP99)
	}
	out.e2e["p99_us"] = pooled.low()
	out.e2e["hit_ratio"] = hitRatio
	fmt.Fprintf(w, "hit_ratio %.6f (GET hits / GETs over the run)\n", hitRatio)
	fmt.Fprintf(w, "capacity %.0f ops/s (closed loop, %d connections x depth %d, 100 ms windows: %s)\n",
		capacityRate, serveConns, readDepth, capHow)
	fmt.Fprintf(w, "p99 %.2f us pooled over %.0f..%.0f ops/s (%s)\n",
		out.e2e["p99_us"], rateAt(rates, churnLow).rate, rateAt(rates, churnHigh).rate, pooled.describe())
	fmt.Fprintf(w, "p50_us.mid %.2f us at %.0f ops/s\n", mid.p50, mid.rate)
	for _, r := range []struct {
		name string
		i    int
	}{{"low", churnLow}, {"mid", churnMid}, {"high", churnHigh}} {
		rs := rateAt(rates, r.i)
		fmt.Fprintf(w, "p99_us.%s %.2f us at %.0f ops/s\n", r.name, rs.p99, rs.rate)
	}
	fmt.Fprintf(w, "max_rate_ops_s %.0f ops/s (highest passing ladder rate %.0f, interpolated to the %s p99 limit)\n",
		maxRate, ladderRate, latencyLimit)

	out.check("reached_mid_rates", len(rates) > churnHigh, "ladder reached %d rates, reports need %d", len(rates), churnHigh+1)
	total.tally.add(closed.tally)
	out.check("get_hits_verified", total.tally.wrong == 0, "%d GET hits, %d wrong values", total.tally.hits, total.tally.wrong)
	out.check("no_failed_ops", out.failed == 0, "%d failed (%d busy, %d unanswered) %s",
		out.failed, total.tally.busy, total.unanswered, total.tally.firstFailure)
	if err := equivCheck(out, s.store.Config()); err != nil {
		return nil, err
	}
	if !opt.trace {
		return out, nil
	}

	// Traced run: the middle step again with spans, then the ladder rungs.
	tr := newTracer()
	layers := serveLayers(s)
	midUntraced := *mid
	for _, c := range cs {
		c.br.Reset(c.conn)
	}
	tsteal := startStealLog()
	traced := openLoopStep(cs, ks, midUntraced.rate, stepDur, tr, uint64(churnMid))
	tsteal.close()
	out.attempted += traced.sent
	out.failed += traced.tally.failed + traced.unanswered
	out.check("traced_pass", !traced.broken && traced.tally.failed == 0 && traced.unanswered == 0,
		"%d failed, %d unanswered", traced.tally.failed, traced.unanswered)
	var tracedMid rateStats
	tracedMid.add(&traced, tsteal)
	layers["trace.overhead_frac"] = tracedMid.p50/midUntraced.p50 - 1
	protoSpans(tr, layers, traced.sent, traced.flushes)
	layers["loadgen.late_p99_us"] = midUntraced.late.quantile(0.99)
	layers["loadgen.backlog_max"] = float64(midUntraced.backlogMax)
	layers["slotstore.open_s"] = s.openDur.Seconds()
	// Rung 3 comes from the closed loop, as on serve-read: the open loop's
	// CPU per op is mostly its pacer and idle wake-ups.
	rung3 := float64(closed.cpu.Nanoseconds()) / float64(max(closed.ops, 1))
	if err := ladder(w, tr, layers, opt.scratch, ks, fillRanks, streams[0][:ladderOps], rung3, true); err != nil {
		return nil, err
	}
	out.layers = layers
	printMetrics(w, "layer: ", layers, unitsOf(perLayer))
	return out, finishTrace(tr, opt, w)
}

// runLadder climbs the rate ladder churnSweeps times. A climb stops after
// its first step whose backlog grows, or that breaks a connection (which
// ends the ladder). It returns the rates reached, each pooling its steps,
// and the totals of every step.
func runLadder(w io.Writer, cs []*olConn, ks *keySpace, stepDur time.Duration) ([]rateStats, stepResult) {
	var steps [][]stepResult // per rate
	var total stepResult
	steal := startStealLog()
climbs:
	for sweep := 0; sweep < churnSweeps; sweep++ {
		for i, rate := range churnRates {
			st := openLoopStep(cs, ks, rate, stepDur, nil, uint64(i))
			if i == len(steps) {
				steps = append(steps, nil)
			}
			steps[i] = append(steps[i], st)
			total.sent += st.sent
			total.unanswered += st.unanswered
			total.tally.add(st.tally)
			verdict := "ok"
			if st.grew() {
				verdict = "backlog grew"
			}
			fmt.Fprintf(w, "climb %d step %2d: %8.0f ops/s offered, %8d sent, backlog max %6d end %6d, %s\n",
				sweep, i, rate, st.sent, st.backlogMax, st.backlogEnd, verdict)
			if st.broken {
				break climbs
			}
			if st.grew() {
				break
			}
		}
	}
	steal.close()
	fmt.Fprintf(w, "host steal %.2f s of CPU during the ladder\n", float64(steal.total())/100)
	rates := make([]rateStats, len(steps))
	for i := range rates {
		r := &rates[i]
		for j := range steps[i] {
			r.add(&steps[i][j], steal)
		}
		verdict := "pass"
		if !r.pass() {
			verdict = "fail"
		}
		fmt.Fprintf(w, "rate %8.0f ops/s: %d steps (%d backlog grew, %d with failures), p50 %9.2f us, p99 %9.2f us (%s), %s\n",
			r.rate, r.steps, r.grew, r.bad, r.p50, r.p99, r.winP99.describe(), verdict)
	}
	return rates, total
}

// rateAt returns ladder rate i, or the highest rate reached when the ladder
// stopped below it (a failed reached_mid_rates check reports that).
func rateAt(rates []rateStats, i int) *rateStats {
	return &rates[min(i, len(rates)-1)]
}
