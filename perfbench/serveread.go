package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"zcache/internal/zkvproto"
)

// serve-read: a closed loop of serveConns connections at pipeline depth
// readDepth against a store whose hot Zipf key set (half its capacity) was
// filled during set-up. 95% GET, 5% overwriting SET. Framing, the server's
// read/flush loop and the lock-free GET path do almost all the work; walks
// and the slotstore stay idle.

const (
	readDepth   = 16
	readWindow  = 100 * time.Millisecond // latency and rate are taken per window (see windowSet)
	warmWindows = 5                      // windows dropped at the start of a closed loop
	streamOps   = 1 << 20                // ops generated per connection (replayed as a ring)
	setupRounds = 7
)

var readMix = mix{get: 0.95, set: 0.05}

// closedResult is one closed-loop pass: per-window latency samples and the
// reply tally of every connection.
type closedResult struct {
	start   time.Time
	windows []latHist
	ops     int64
	flushes int64
	tally   replyTally
	elapsed time.Duration
	cpu     time.Duration
	errs    []error
}

// closedLoop keeps every connection busy for dur: queue depth requests,
// flush, read the depth replies, repeat. A request's latency runs from the
// flush of its burst to its reply.
func closedLoop(conns []net.Conn, streams [][]op, ks *keySpace, dur time.Duration, tr *tracer) closedResult {
	nWin := int(dur/readWindow) + 1
	res := closedResult{windows: make([]latHist, nWin)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0 := time.Now()
	cpuStart := cpuTime()
	start := time.Now()
	res.start = start
	for ci := range conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			win := make([]latHist, nWin)
			var tally replyTally
			c := zkvproto.NewClient(conns[ci])
			ops := streams[ci]
			mask := len(ops) - 1
			next, bursts := 0, int64(0)
			var err error
		loop:
			for time.Since(start) < dur {
				id := uint64(ci)<<48 | uint64(bursts)
				root := tr.begin("client.burst", -1, id)
				first := next
				for k := 0; k < readDepth; k++ {
					o := ops[next&mask]
					next++
					switch o.code {
					case zkvproto.OpGet:
						err = c.QueueGet(ks.keys[o.rank])
					case zkvproto.OpSet:
						err = c.QueueSet(ks.keys[o.rank], ks.vals[o.rank])
					default:
						err = c.QueueDel(ks.keys[o.rank])
					}
					if err != nil {
						break loop
					}
				}
				h := tr.begin("zkvproto.flush", root, id)
				t0 := time.Now()
				err = c.Flush()
				tr.end(h)
				if err != nil {
					tally.failed += readDepth
					break
				}
				for k := 0; k < readDepth; k++ {
					h := int32(-1)
					if k == 0 {
						h = tr.begin("zkvproto.reply_wait", root, id)
					}
					resp, rerr := c.ReadReply()
					tr.end(h)
					if rerr != nil {
						tally.fail("read reply: %v", rerr)
						tally.failed += int64(readDepth - k - 1)
						err = rerr
						break loop
					}
					t := time.Now()
					tally.note(ks, ops[(first+k)&mask], resp)
					if w := int(t.Sub(start) / readWindow); w < nWin {
						win[w].add(t.Sub(t0))
					}
				}
				tr.end(root)
				bursts++
			}
			mu.Lock()
			defer mu.Unlock()
			for w := range win {
				res.windows[w].merge(&win[w])
			}
			res.ops += int64(next)
			res.flushes += bursts
			res.tally.add(tally)
			if err != nil {
				res.errs = append(res.errs, fmt.Errorf("connection %d: %w", ci, err))
			}
		}(ci)
	}
	wg.Wait()
	res.elapsed = time.Since(cpu0)
	res.cpu = cpuTime() - cpuStart
	return res
}

// windowStats summarizes the full windows past the warm-up ones (see
// windowSet): the request rate and the p50 and p99 latency in microseconds.
func windowStats(res *closedResult, dur time.Duration, steal *stealLog) (rate, p50, p99 float64, how string) {
	first, full := 0, int(dur/readWindow)
	if full > 2*warmWindows {
		first = warmWindows
	}
	var rates, p50s, p99s windowSet
	for i := first; i < full; i++ {
		w := &res.windows[i]
		if w.n == 0 {
			continue
		}
		from := res.start.Add(time.Duration(i) * readWindow)
		disturbed := steal.stolen(from, from.Add(readWindow))
		rates.add(float64(w.n)/readWindow.Seconds(), disturbed)
		p50s.add(w.quantile(0.5), disturbed)
		p99s.add(w.quantile(0.99), disturbed)
	}
	if len(rates.all) == 0 {
		return 0, 0, 0, "no windows"
	}
	return rates.high(), p50s.low(), p99s.low(), rates.describe()
}

func runServeRead(opt options, _ simSuite, w io.Writer) (_ *outcome, err error) {
	capacity, err := zcachedCapacity()
	if err != nil {
		return nil, err
	}
	hot := capacity / 2
	ks := newKeySpace(opt.seed, hot)
	streams := make([][]op, serveConns)
	for c := range streams {
		streams[c] = opStream(opt.seed, c, hot, readMix, streamOps)
	}
	fillRanks := make([]uint32, hot)
	for i := range fillRanks {
		fillRanks[i] = uint32(hot - 1 - i)
	}
	fmt.Fprintf(w, "serve-read: closed loop, %d connections x depth %d, %d hot Zipf(%.2f) keys of %d capacity, %d-byte values, %.0f%% GET\n",
		serveConns, readDepth, hot, zipfTheta, capacity, valBytes, 100*readMix.get)

	s, setupS, err := setupMedian(setupRounds,
		func() (*session, error) { return openSession(opt.scratch, false, ks, fillRanks) },
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
	dur := time.Duration(opt.seconds * float64(time.Second))
	steal := startStealLog()
	res := closedLoop(s.conns, streams, ks, dur, nil)
	steal.close()
	rate, p50, p99, how := windowStats(&res, dur, steal)
	out.attempted, out.failed = res.ops, res.tally.failed
	hitRatio := float64(res.tally.hits) / float64(max(res.tally.gets, 1))
	out.e2e["throughput_per_s"] = rate
	out.e2e["p50_us"] = p50
	out.e2e["p99_us"] = p99
	out.e2e["hit_ratio"] = hitRatio
	fmt.Fprintf(w, "setup_s %.6f s (median of %d)\n", setupS, setupRounds)
	fmt.Fprintf(w, "ops_per_s %.0f ops/s, p50_us %.2f us, p99_us %.2f us (100 ms windows: %s)\n", rate, p50, p99, how)
	fmt.Fprintf(w, "host steal %.2f s of CPU during the %s closed loop\n", float64(steal.total())/100, dur)
	fmt.Fprintf(w, "hit_ratio %.6f (GET hits / GETs)\n", hitRatio)

	out.check("no_errors", len(res.errs) == 0, "%v", res.errs)
	out.check("get_hits_verified", res.tally.wrong == 0, "%d GET hits, %d wrong values", res.tally.hits, res.tally.wrong)
	out.check("no_failed_ops", res.tally.failed == 0, "%d failed (%d busy) %s", res.tally.failed, res.tally.busy, res.tally.firstFailure)
	if err := equivCheck(out, s.store.Config()); err != nil {
		return nil, err
	}
	if !opt.trace {
		return out, nil
	}

	// Traced run: a traced closed-loop pass for the protocol spans and the
	// tracing overhead, then the ladder rungs.
	tr := newTracer()
	layers := serveLayers(s)
	tdur := min(dur/2, 3*time.Second)
	tres := closedLoop(s.conns, streams, ks, tdur, tr)
	out.attempted += tres.ops
	out.failed += tres.tally.failed
	out.check("traced_pass", len(tres.errs) == 0 && tres.tally.failed == 0, "%d failed %v", tres.tally.failed, tres.errs)
	tRate := float64(tres.ops) / tres.elapsed.Seconds()
	uRate := float64(res.ops) / res.elapsed.Seconds()
	layers["trace.overhead_frac"] = 1 - tRate/uRate
	protoSpans(tr, layers, tres.ops, tres.flushes)
	layers["loadgen.late_p99_us"] = 0
	layers["loadgen.backlog_max"] = 0
	layers["slotstore.open_s"] = 0
	rung3 := float64(res.cpu.Nanoseconds()) / float64(res.ops)
	if err := ladder(w, tr, layers, opt.scratch, ks, fillRanks, streams[0][:ladderOps], rung3, false); err != nil {
		return nil, err
	}
	out.layers = layers
	printMetrics(w, "layer: ", layers, unitsOf(perLayer))
	return out, finishTrace(tr, opt, w)
}

// protoSpans turns the flush and first-reply spans into per-layer metrics.
func protoSpans(tr *tracer, layers map[string]float64, ops, flushes int64) {
	mean := func(ds []time.Duration) float64 {
		if len(ds) == 0 {
			return 0
		}
		var s time.Duration
		for _, d := range ds {
			s += d
		}
		return float64(s.Nanoseconds()) / float64(len(ds)) / 1e3
	}
	layers["zkvproto.flush_us"] = mean(tr.durations("zkvproto.flush"))
	layers["zkvproto.reply_wait_us"] = mean(tr.durations("zkvproto.reply_wait"))
	layers["zkvproto.ops_per_flush"] = float64(ops) / float64(max(flushes, 1))
}
