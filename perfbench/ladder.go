package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"zcache/internal/zkv"
	"zcache/internal/zkvproto"
)

// The serving ladder times each layer of a request from outside:
//
//	rung 1  the store: the workload's ops straight into zkv.Store
//	rung 2  + the codec: each op's request and reply through
//	        zkvproto's WriteTo/ReadFrom over an in-memory buffer
//	rung 3  + the wire: process CPU time per op of the loopback run
//
// Each rung is cumulative, so its delta over the rung below is the cost
// that layer adds; what rung 3 adds over rung 2 (syscalls, goroutine
// wake-ups, the server's read/flush loop) is not attributed to any layer
// the benchmark can call directly.

// ladderOps is how many ops of a workload's stream the rung-1 and rung-2
// passes replay.
const ladderOps = 200_000

// storeRung is rung 1's outcome.
type storeRung struct {
	getNs, setNs, delNs float64 // per op of the kind, timer cost removed
	perOpNs             float64 // mix-weighted per op
	getLocked           float64 // GETs that fell back to the shard mutex
	relocPerSet         float64
	evictPerSet         float64
	walkDepthMean       float64
}

// timerCost estimates the cost of the time.Now/time.Since pair wrapped
// around each rung-1 op, so it can be taken off the per-op figures.
func timerCost() float64 {
	const n = 200_000
	start := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		sink += time.Since(t)
	}
	_ = sink
	return float64(time.Since(start).Nanoseconds()) / n
}

// runStoreRung opens a store of the serving geometry (persisting under a
// fresh directory when persist is set), fills it with fillRanks, and
// replays ops straight into Get/Set/Delete on one goroutine, timing each.
func runStoreRung(scratch string, persist bool, ks *keySpace, fillRanks []uint32, ops []op) (storeRung, error) {
	var r storeRung
	cfg := zcachedConfig()
	if persist {
		dir, err := os.MkdirTemp(scratch, "rung1-")
		if err != nil {
			return r, err
		}
		defer os.RemoveAll(dir)
		cfg.PersistDir = dir
	}
	st, err := zkv.Open(cfg)
	if err != nil {
		return r, err
	}
	defer st.Close()
	for _, rk := range fillRanks {
		if err := st.Set(ks.keys[rk], ks.vals[rk]); err != nil {
			return r, err
		}
	}
	overhead := timerCost()
	before := st.Stats()
	var sum [3]time.Duration
	var cnt [3]int
	dst := make([]byte, 0, valBytes)
	for _, o := range ops {
		k := ks.keys[o.rank]
		t := time.Now()
		switch o.code {
		case zkvproto.OpGet:
			var ok bool
			dst, ok = st.Get(k, dst[:0])
			d := time.Since(t)
			if ok && !ks.verifyHit(o.rank, dst) {
				return r, fmt.Errorf("rung 1: GET rank %d returned a wrong value", o.rank)
			}
			sum[0] += d
			cnt[0]++
		case zkvproto.OpSet:
			if err := st.Set(k, ks.vals[o.rank]); err != nil {
				return r, err
			}
			sum[1] += time.Since(t)
			cnt[1]++
		default:
			st.Delete(k)
			sum[2] += time.Since(t)
			cnt[2]++
		}
	}
	after := st.Stats()
	per := func(i int) float64 {
		if cnt[i] == 0 {
			return 0
		}
		return max(float64(sum[i].Nanoseconds())/float64(cnt[i])-overhead, 0)
	}
	r.getNs, r.setNs, r.delNs = per(0), per(1), per(2)
	n := float64(len(ops))
	r.perOpNs = (r.getNs*float64(cnt[0]) + r.setNs*float64(cnt[1]) + r.delNs*float64(cnt[2])) / n
	if g := after.Gets - before.Gets; g > 0 {
		r.getLocked = float64(after.GetLocked-before.GetLocked) / float64(g)
	}
	if s := after.Sets - before.Sets; s > 0 {
		r.relocPerSet = float64(after.Relocations-before.Relocations) / float64(s)
		r.evictPerSet = float64(after.Evictions-before.Evictions) / float64(s)
	}
	var installs, depth float64
	for i := range after.WalkDepth {
		c := float64(after.WalkDepth[i] - before.WalkDepth[i])
		installs += c
		depth += c * float64(i)
	}
	if installs > 0 {
		r.walkDepthMean = depth / installs
	}
	return r, nil
}

// runCodecRung encodes every op's request and reply with zkvproto and
// decodes them again through an in-memory buffer, in chunks, timing the
// encode and decode halves separately. GET replies carry the key's value.
func runCodecRung(ks *keySpace, ops []op) (encNs, decNs float64, err error) {
	const chunk = 4096
	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, 64<<10)
	var rd bytes.Reader
	br := bufio.NewReaderSize(&rd, 64<<10)
	var req, rreq zkvproto.Request
	var resp, rresp zkvproto.Response
	var enc, dec time.Duration
	for i := 0; i < len(ops); i += chunk {
		part := ops[i:min(i+chunk, len(ops))]
		buf.Reset()
		bw.Reset(&buf)
		t := time.Now()
		for _, o := range part {
			request(&req, ks, o)
			if err := req.WriteTo(bw); err != nil {
				return 0, 0, err
			}
			resp.Status, resp.Val = zkvproto.StatusOK, nil
			if o.code == zkvproto.OpGet {
				resp.Val = ks.vals[o.rank]
			}
			if err := resp.WriteTo(bw); err != nil {
				return 0, 0, err
			}
		}
		if err := bw.Flush(); err != nil {
			return 0, 0, err
		}
		enc += time.Since(t)

		rd.Reset(buf.Bytes())
		br.Reset(&rd)
		t = time.Now()
		for range part {
			if err := rreq.ReadFrom(br); err != nil {
				return 0, 0, err
			}
			if err := rresp.ReadFrom(br); err != nil {
				return 0, 0, err
			}
		}
		dec += time.Since(t)
		if _, err := br.ReadByte(); err != io.EOF {
			return 0, 0, fmt.Errorf("rung 2: decode left bytes behind")
		}
	}
	n := float64(len(ops))
	return float64(enc.Nanoseconds()) / n, float64(dec.Nanoseconds()) / n, nil
}

// ladder runs rungs 1 and 2 on ops, combines them with rung 3 (process CPU
// per op of the loopback run), prints the ladder and fills the per-layer
// metrics. persistRung adds the rung-1 pass with persistence on, whose
// difference to the plain pass is the slotstore mirror's cost per SET.
func ladder(w io.Writer, tr *tracer, layers map[string]float64, scratch string, ks *keySpace,
	fillRanks []uint32, ops []op, rung3Ns float64, persistRung bool) error {
	h := tr.begin("rung1.zkv.Store", -1, 1)
	r1, err := runStoreRung(scratch, false, ks, fillRanks, ops)
	tr.end(h)
	if err != nil {
		return err
	}
	layers["zkv.get_ns"] = r1.getNs
	layers["zkv.get_locked_frac"] = r1.getLocked
	layers["zkv.set_ns"] = r1.setNs
	layers["zkv.del_ns"] = r1.delNs
	layers["zkv.relocations_per_set"] = r1.relocPerSet
	layers["zkv.evictions_per_set"] = r1.evictPerSet
	layers["zkv.walk_depth_mean"] = r1.walkDepthMean
	layers["slotstore.set_ns"] = 0
	if persistRung {
		h := tr.begin("rung1.zkv.Store+slotstore", -1, 2)
		rp, err := runStoreRung(scratch, true, ks, fillRanks, ops)
		tr.end(h)
		if err != nil {
			return err
		}
		layers["slotstore.set_ns"] = rp.setNs - r1.setNs
	}

	h = tr.begin("rung2.zkvproto.codec", -1, 3)
	enc, dec, err := runCodecRung(ks, ops)
	tr.end(h)
	if err != nil {
		return err
	}
	layers["zkvproto.encode_ns"] = enc
	layers["zkvproto.decode_ns"] = dec

	rung1 := r1.perOpNs
	rung2 := rung1 + enc + dec
	wire := rung3Ns - rung2
	layers["ladder.rung1_ns"] = rung1
	layers["ladder.rung2_ns"] = rung2
	layers["ladder.rung3_ns"] = rung3Ns
	layers["server.wire_ns_per_op"] = wire
	layers["ladder.unattributed_frac"] = wire / rung3Ns
	gets, sets, dels := mixOf(ops)
	fmt.Fprintf(w, "ladder: %d ops (%d GET, %d SET, %d DEL), ns per op, each rung includes the ones below\n",
		len(ops), gets, sets, dels)
	fmt.Fprintf(w, "ladder: rung 1 store (zkv.Store, one goroutine)   %9.0f ns  GET %.0f  SET %.0f  DEL %.0f\n",
		rung1, r1.getNs, r1.setNs, r1.delNs)
	fmt.Fprintf(w, "ladder: rung 2 + codec (zkvproto frames)          %9.0f ns  +%.0f (encode %.0f, decode %.0f)\n",
		rung2, enc+dec, enc, dec)
	fmt.Fprintf(w, "ladder: rung 3 + loopback (CPU per op, end to end) %8.0f ns  +%.0f unattributed (%.1f%% of rung 3)\n",
		rung3Ns, wire, 100*wire/rung3Ns)
	return nil
}
