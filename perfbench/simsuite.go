package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"zcache"
	"zcache/internal/cache"
	"zcache/internal/energy"
	"zcache/internal/sample"
	"zcache/internal/sim"
	"zcache/internal/trace"
	"zcache/internal/workloads"
)

// sim-suite: how researchers regenerate the figures. A cold Fig. 4 under
// LRU (every design on every workload of the reduced suite) through
// Experiment.RunMatrix with a fresh runlab store and the default worker
// count, then the sampled Fig. 4 ∪ Fig. 5 cell set (both lookups) from a
// fresh Experiment. No network, so serving changes must read flat here.

// simSuite is the simulator workload's input: the preset (whose seed the
// benchmark seed replaces) and the workloads of the reduced suite.
type simSuite struct {
	preset    zcache.Preset
	workloads []string
	// pinned is the digest of every exact cell's simulated counts at
	// seed 1; a change that only claims speed must reproduce it. Empty
	// for suites that are not pinned.
	pinned string
}

// defaultSuite is the reduced suite `runlab bench` uses (two L1-resident,
// two cache-sensitive, four in between) on the quick preset.
func defaultSuite() simSuite {
	return simSuite{
		preset: zcache.QuickPreset(),
		workloads: []string{"blackscholes", "gamess", "ammp", "canneal",
			"cactusADM", "mcf", "libquantum", "wupwise"},
		pinned: "bc9427e723c2a5e4",
	}
}

// maxRelErr is the sampled suite's accuracy bound per cell: its L2 miss
// ratio against a full replay of the same captured stream.
const maxRelErr = 0.02

// seeded returns the suite preset with its seed derived from the benchmark
// seed; seed 1 keeps the preset's own.
func (s simSuite) seeded(seed uint64) zcache.Preset {
	p := s.preset
	p.Seed ^= (seed - 1) * 0x9e3779b97f4a7c15
	return p
}

func suiteDesigns() []zcache.DesignPoint {
	return append([]zcache.DesignPoint{zcache.BaselineDesign()}, zcache.Fig4Designs()...)
}

// suiteCells lists the exact Fig. 4 cells (serial lookup) or, sampled, the
// Fig. 4 ∪ Fig. 5 cells (both lookups).
func suiteCells(ws []workloads.Workload, sampled bool) []zcache.MatrixCell {
	lookups := []energy.Lookup{energy.Serial}
	if sampled {
		lookups = append(lookups, energy.Parallel)
	}
	var cells []zcache.MatrixCell
	for _, w := range ws {
		for _, d := range suiteDesigns() {
			for _, lk := range lookups {
				cells = append(cells, zcache.MatrixCell{Workload: w, Design: d, Policy: sim.PolicyLRU, Lookup: lk})
			}
		}
	}
	return cells
}

// matrixRun is one fresh Experiment attached to a fresh runlab store.
type matrixRun struct {
	e   *zcache.Experiment
	dir string
}

func newMatrixRun(scratch string, p zcache.Preset, sampled bool) (*matrixRun, error) {
	dir, err := os.MkdirTemp(scratch, "runlab-")
	if err != nil {
		return nil, err
	}
	e := zcache.NewExperiment(p)
	if sampled {
		e.Sampled = &sample.Spec{}
	}
	if _, err := e.AttachStore(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &matrixRun{e: e, dir: dir}, nil
}

func (m *matrixRun) remove() error { return os.RemoveAll(m.dir) }

// run executes cells through RunMatrix and times the call.
func (m *matrixRun) run(cells []zcache.MatrixCell, tr *tracer, name string) ([]zcache.RunResult, time.Duration, error) {
	h := tr.begin(name, -1, 0)
	t := time.Now()
	res, err := m.e.RunMatrix(context.Background(), cells)
	d := time.Since(t)
	tr.end(h)
	return res, d, err
}

// cellDigest fingerprints one cell's simulated counts and evaluation.
func cellDigest(r zcache.RunResult) (uint64, error) {
	b, err := json.Marshal(struct {
		W, D string
		L    energy.Lookup
		M    sim.Metrics
		E    energy.Result
	}{r.Workload, r.Design.Label, r.Lookup, r.Metrics, r.Eval})
	if err != nil {
		return 0, err
	}
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h, nil
}

// suiteDigest folds every cell's digest in cell order.
func suiteDigest(rs []zcache.RunResult) (string, error) {
	h := uint64(14695981039346656037)
	for _, r := range rs {
		d, err := cellDigest(r)
		if err != nil {
			return "", err
		}
		h = (h ^ d) * 1099511628211
	}
	return fmt.Sprintf("%016x", h), nil
}

func missRatio(c energy.SystemCounts) float64 {
	if c.L2Accesses == 0 {
		return 0
	}
	return float64(c.L2Misses) / float64(c.L2Accesses)
}

func runSimSuite(opt options, suite simSuite, w io.Writer) (*outcome, error) {
	p := suite.seeded(opt.seed)
	ws, err := zcache.SuiteWorkloads(suite.workloads)
	if err != nil {
		return nil, err
	}
	exactCells, sampledCells := suiteCells(ws, false), suiteCells(ws, true)
	fmt.Fprintf(w, "sim-suite: preset %s (seed %#x), %d workloads, exact Fig. 4 LRU %d cells + sampled Fig. 4 ∪ Fig. 5 %d cells\n",
		p.Name, p.Seed, len(ws), len(exactCells), len(sampledCells))

	// Set-up: what a run pays before its first cell — the experiment, its
	// fresh result store, and every workload's generators for the preset.
	first, setupS, err := setupMedian(5,
		func() (*matrixRun, error) {
			m, err := newMatrixRun(opt.scratch, p, false)
			if err != nil {
				return nil, err
			}
			for _, wl := range ws {
				if _, err := wl.Generators(p.Cores, 64, p.L2Bytes, p.Seed); err != nil {
					m.remove()
					return nil, err
				}
			}
			return m, nil
		},
		(*matrixRun).remove)
	if err != nil {
		return nil, err
	}
	out := &outcome{e2e: map[string]float64{"setup_s": setupS}}
	fmt.Fprintf(w, "setup_s %.6f s (median of 5: experiment, fresh store, %d workloads' generators)\n", setupS, len(ws))
	var tr *tracer
	layers := map[string]float64{}
	if opt.trace {
		tr = newTracer()
		zeroOtherSystem(layers, "sim")
	}

	// The first serial pass: every exact cell through Experiment.Run, one
	// at a time, timed from outside.
	steal := startStealLog()
	defer steal.close()
	sp, err := serialPass(p, exactCells, tr, 0, nil)
	if err != nil {
		return nil, err
	}
	out.attempted += int64(len(exactCells))

	// Measured: cold exact suite then cold sampled suite, repeated until
	// the run's time is spent.
	dur := time.Duration(opt.seconds * float64(time.Second))
	var exactTimes, sampledTimes []float64
	var exact, sampled []zcache.RunResult
	var exactDigest, sampledDigest string
	repeats := 0 // iterations whose digests differ from the first's
	var lastExact, lastSampled *matrixRun
	start := time.Now()
	for iter := 0; iter == 0 || time.Since(start) < dur; iter++ {
		ex := first
		if iter > 0 {
			if ex, err = newMatrixRun(opt.scratch, p, false); err != nil {
				return nil, err
			}
		}
		rs, d, err := ex.run(exactCells, nil, "")
		out.attempted += int64(len(exactCells))
		if err != nil {
			return nil, fmt.Errorf("exact suite: %w", err)
		}
		exactTimes = append(exactTimes, d.Seconds())
		dg, err := suiteDigest(rs)
		if err != nil {
			return nil, err
		}
		if iter == 0 {
			exact, exactDigest = rs, dg
		} else if dg != exactDigest {
			repeats++
		}

		sm, err := newMatrixRun(opt.scratch, p, true)
		if err != nil {
			return nil, err
		}
		srs, sd, err := sm.run(sampledCells, nil, "")
		out.attempted += int64(len(sampledCells))
		if err != nil {
			return nil, fmt.Errorf("sampled suite: %w", err)
		}
		sampledTimes = append(sampledTimes, sd.Seconds())
		sdg, err := suiteDigest(srs)
		if err != nil {
			return nil, err
		}
		if iter == 0 {
			sampled, sampledDigest = srs, sdg
		} else if sdg != sampledDigest {
			repeats++
		}
		for _, m := range []*matrixRun{lastExact, lastSampled} {
			if m != nil {
				if err := m.remove(); err != nil {
					return nil, err
				}
			}
		}
		lastExact, lastSampled = ex, sm
	}
	defer lastExact.remove()
	defer lastSampled.remove()
	// Interleaved minima: on a shared machine noise only ever adds time.
	suiteS, sampledS := slices.Min(exactTimes), slices.Min(sampledTimes)
	out.check("suites_repeatable", repeats == 0, "%d of %d repetitions changed a suite's digest", repeats, len(exactTimes)-1)
	fmt.Fprintf(w, "suite_s %.4f s (cold exact Fig. 4, minimum of %d: %.4v)\n", suiteS, len(exactTimes), exactTimes)
	fmt.Fprintf(w, "sampled_suite_s %.4f s (cold sampled Fig. 4 ∪ Fig. 5, minimum of %d: %.4v)\n", sampledS, len(sampledTimes), sampledTimes)
	out.e2e["throughput_per_s"] = float64(len(exactCells)+len(sampledCells)) / (suiteS + sampledS)

	// The second serial pass, long after the first: a cell's time is the
	// faster of its two, and both passes must equal RunMatrix's results.
	sp, err = serialPass(p, exactCells, tr, 1, sp)
	steal.close()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "host steal %.2f s of CPU during the suites and serial passes\n", float64(steal.total())/100)
	out.attempted += int64(len(exactCells))
	mismatch := 0
	for pass := range sp.results {
		for i, r := range sp.results[pass] {
			a, err := cellDigest(r)
			if err != nil {
				return nil, err
			}
			b, err := cellDigest(exact[i])
			if err != nil {
				return nil, err
			}
			if a != b {
				mismatch++
			}
		}
	}
	cellTimes := sp.times
	var hits, accesses, l1 uint64
	for _, r := range sp.results[0] {
		hits += r.Metrics.Counts.L2Hits
		accesses += r.Metrics.Counts.L2Accesses
		l1 += r.Metrics.Counts.L1Accesses
	}
	serialTotal := sp.firstTotal
	q := durQuantiles(cellTimes, 0.5, 0.99)
	out.e2e["p50_us"], out.e2e["p99_us"] = q[0], q[1]
	out.e2e["hit_ratio"] = float64(hits) / float64(max(accesses, 1))
	fmt.Fprintf(w, "cell p50 %.0f us, p99 %.0f us (faster of two serial passes, %d cells); L2 hit ratio %.6f\n",
		q[0], q[1], len(cellTimes), out.e2e["hit_ratio"])
	out.check("serial_equals_matrix", mismatch == 0, "%d of %d serial cells differ from RunMatrix's", mismatch, 2*len(exactCells))
	switch {
	case opt.seed == 1 && suite.pinned != "":
		out.check("pinned_digest", exactDigest == suite.pinned, "exact cells digest %s, pinned %s", exactDigest, suite.pinned)
	default:
		out.check("pinned_digest", true, "exact cells digest %s (pinned for seed 1 only)", exactDigest)
	}

	// Warm rerun: the same matrix on the last exact store must be served
	// entirely from disk.
	warm := zcache.NewExperiment(p)
	if _, err := warm.AttachStore(lastExact.dir); err != nil {
		return nil, err
	}
	wrs, wd, err := (&matrixRun{e: warm}).run(exactCells, tr, "runlab.warm_rerun")
	out.attempted += int64(len(exactCells))
	if err != nil {
		return nil, fmt.Errorf("warm rerun: %w", err)
	}
	computed := warm.Lab.Last().Computed
	wdg, err := suiteDigest(wrs)
	if err != nil {
		return nil, err
	}
	out.check("warm_rerun", computed == 0 && wdg == exactDigest, "%d cells computed, digest %s", computed, wdg)

	// Sampled accuracy: every sampled serial-lookup cell against a full
	// replay of its workload's captured stream.
	acc, err := sampledAccuracy(p, ws, sampled, tr)
	if err != nil {
		return nil, err
	}
	out.attempted += int64(acc.replays)
	// The bound is the one `runlab validate-sampled` establishes for the
	// preset's own seed, so it gates there; other seeds report the error.
	accOK := acc.maxErr <= maxRelErr || opt.seed != 1
	note := ""
	if acc.maxErr > maxRelErr {
		note = " — EXCEEDS the bound (gated at seed 1 only)"
	}
	out.check("sampled_accuracy", accOK, "max relative miss-ratio error %.4f%% over %d cells (bound %.0f%%)%s",
		100*acc.maxErr, acc.replays, 100*maxRelErr, note)
	if !opt.trace {
		return out, nil
	}

	// Traced run: the remaining layer rungs.
	layers["sim.cell_s"] = serialTotal.Seconds() / float64(len(cellTimes))
	layers["sim.accesses_per_s"] = float64(l1) / serialTotal.Seconds()
	layers["runlab.warm_rerun_s"] = wd.Seconds()
	layers["runlab.cells_computed"] = float64(computed)
	layers["sim.capture_s"] = acc.capture.Seconds()
	layers["sim.l2_refs"] = float64(acc.refs)
	layers["sim.replay_ns_per_ref"] = float64(acc.replay.Nanoseconds()) / float64(acc.refs*uint64(len(suiteDesigns())))
	layers["sample.max_rel_err"] = acc.maxErr
	if err := samplerRung(p, ws, acc.streams, tr, layers); err != nil {
		return nil, err
	}
	if err := genRung(p, ws, tr, layers); err != nil {
		return nil, err
	}
	if err := kernelRung(p, ws, acc.streams, tr, layers); err != nil {
		return nil, err
	}
	again, err := newMatrixRun(opt.scratch, p, false)
	if err != nil {
		return nil, err
	}
	defer again.remove()
	_, td, err := again.run(exactCells, tr, "runlab.RunMatrix")
	out.attempted += int64(len(exactCells))
	if err != nil {
		return nil, err
	}
	layers["trace.overhead_frac"] = td.Seconds()/suiteS - 1
	out.layers = layers
	printMetrics(w, "layer: ", layers, unitsOf(perLayer))
	return out, finishTrace(tr, opt, w)
}

// accuracy is the sampled-accuracy pass: captures, full replays and the
// worst per-cell error of the sampled suite against them.
type accuracy struct {
	streams         map[string]*sim.L2Stream
	capture, replay time.Duration
	refs            uint64
	replays         int
	maxErr          float64
}

func sampledAccuracy(p zcache.Preset, ws []workloads.Workload, sampled []zcache.RunResult, tr *tracer) (accuracy, error) {
	acc := accuracy{streams: map[string]*sim.L2Stream{}}
	e := zcache.NewExperiment(p)
	bySerial := map[string]zcache.RunResult{}
	for _, r := range sampled {
		if r.Lookup == energy.Serial {
			bySerial[r.Workload+"/"+r.Design.Label] = r
		}
	}
	for i, w := range ws {
		cfg := e.Config(zcache.BaselineDesign(), sim.PolicyLRU, energy.Serial)
		gens, err := w.Generators(cfg.Cores, cfg.LineBytes, cfg.L2Bytes, cfg.Seed)
		if err != nil {
			return acc, err
		}
		h := tr.begin("sim.CaptureL2Stream", -1, uint64(i))
		t := time.Now()
		stream, err := sim.CaptureL2Stream(cfg, gens)
		acc.capture += time.Since(t)
		tr.end(h)
		if err != nil {
			return acc, fmt.Errorf("capture %s: %w", w.Name, err)
		}
		acc.streams[w.Name] = stream
		acc.refs += uint64(len(stream.Refs))
		for _, d := range suiteDesigns() {
			h := tr.begin("sim.ReplayL2", -1, uint64(i))
			t := time.Now()
			full, err := sim.ReplayL2(e.Config(d, sim.PolicyLRU, energy.Serial), stream)
			acc.replay += time.Since(t)
			tr.end(h)
			if err != nil {
				return acc, fmt.Errorf("replay %s/%s: %w", w.Name, d.Label, err)
			}
			acc.replays++
			s, ok := bySerial[w.Name+"/"+d.Label]
			if !ok {
				return acc, fmt.Errorf("no sampled cell for %s/%s", w.Name, d.Label)
			}
			fm := missRatio(full.Counts)
			if fm == 0 {
				continue
			}
			rel := (missRatio(s.Metrics.Counts) - fm) / fm
			acc.maxErr = max(acc.maxErr, rel, -rel)
		}
	}
	return acc, nil
}

// samplerRung times the sampler's own calls on the captured streams:
// BuildPlan per workload and RunLookups per design row.
func samplerRung(p zcache.Preset, ws []workloads.Workload, streams map[string]*sim.L2Stream,
	tr *tracer, layers map[string]float64) error {
	e := zcache.NewExperiment(p)
	var plan, run time.Duration
	var total, measured int
	var skipped uint64
	lookups := []energy.Lookup{energy.Serial, energy.Parallel}
	for i, w := range ws {
		stream := streams[w.Name]
		h := tr.begin("sample.BuildPlan", -1, uint64(i))
		t := time.Now()
		pl, err := sample.BuildPlan(stream, p.L2Bytes/64, sample.Spec{})
		plan += time.Since(t)
		tr.end(h)
		if err != nil {
			return err
		}
		for _, d := range suiteDesigns() {
			h := tr.begin("sample.RunLookups", -1, uint64(i))
			t := time.Now()
			_, est, err := sample.RunLookups(e.Config(d, sim.PolicyLRU, energy.Serial), stream, pl, lookups)
			run += time.Since(t)
			tr.end(h)
			if err != nil {
				return err
			}
			total += est.TotalRefs
			measured += est.SampledRefs
			skipped += est.SkippedHits
		}
	}
	layers["sample.plan_s"] = plan.Seconds()
	layers["sample.run_s"] = run.Seconds()
	layers["sample.measured_frac"] = float64(measured) / float64(max(total, 1))
	layers["sample.dew_skip_frac"] = float64(skipped) / float64(max(total, 1))
	return nil
}

// genRung drains every workload's generators through NextBatch.
func genRung(p zcache.Preset, ws []workloads.Workload, tr *tracer, layers map[string]float64) error {
	const perCore = 1 << 16
	buf := make([]trace.Access, 256)
	var total time.Duration
	var n int
	for i, w := range ws {
		gens, err := w.Generators(p.Cores, 64, p.L2Bytes, p.Seed)
		if err != nil {
			return err
		}
		h := tr.begin("workloads.NextBatch", -1, uint64(i))
		t := time.Now()
		for _, g := range gens {
			for got := 0; got < perCore; {
				k := trace.FillBatch(g, buf)
				if k == 0 {
					break
				}
				got += k
				n += k
			}
		}
		total += time.Since(t)
		tr.end(h)
	}
	layers["workloads.gen_ns_per_access"] = float64(total.Nanoseconds()) / float64(max(n, 1))
	return nil
}

// kernelRung replays the captured L2 streams into two caches of the
// preset's L2 capacity built with zcache.New: the SA-4 baseline and the
// Z4/52 zcache.
func kernelRung(p zcache.Preset, ws []workloads.Workload, streams map[string]*sim.L2Stream, tr *tracer, layers map[string]float64) error {
	for _, k := range []struct {
		name string
		cfg  zcache.Config
	}{
		{"sa4", zcache.Config{CapacityBytes: p.L2Bytes, LineBytes: 64, Ways: 4,
			Design: zcache.DesignSetAssociativeHashed, Policy: zcache.PolicyBucketedLRU, Seed: p.Seed}},
		{"z4_52", zcache.Config{CapacityBytes: p.L2Bytes, LineBytes: 64, Ways: 4, WalkLevels: 3,
			Design: zcache.DesignZCache, Policy: zcache.PolicyBucketedLRU, Seed: p.Seed}},
	} {
		c, err := zcache.New(k.cfg)
		if err != nil {
			return err
		}
		var refs int
		h := tr.begin("cache.Access."+k.name, -1, 0)
		t := time.Now()
		for _, w := range ws {
			s := streams[w.Name]
			for _, r := range s.Refs {
				c.Access(r.Line<<6, r.Write)
			}
			refs += len(s.Refs)
		}
		d := time.Since(t)
		tr.end(h)
		layers["cache.access_ns."+k.name] = float64(d.Nanoseconds()) / float64(max(refs, 1))
		if z, ok := c.Array().(*cache.ZCache); ok {
			misses := float64(max(c.Stats().Misses, 1))
			_, lvls := z.WalkProfile()
			var cands uint64
			for _, l := range lvls {
				cands += l.Candidates
			}
			layers["cache.candidates_per_miss"] = float64(cands) / misses
			layers["cache.relocations_per_miss"] = float64(c.Counters().Relocations) / misses
		}
	}
	return nil
}

// serialRuns is the outcome of the serial passes over the exact cells.
type serialRuns struct {
	results    [][]zcache.RunResult // per pass, in cell order
	times      []time.Duration      // per cell, the faster pass
	firstTotal time.Duration        // the first pass's summed cell times
}

// serialPass runs every cell through a fresh Experiment's Run, one at a
// time, timing each call, and folds the pass into prev.
func serialPass(p zcache.Preset, cells []zcache.MatrixCell, tr *tracer, pass int, prev *serialRuns) (*serialRuns, error) {
	if prev == nil {
		prev = &serialRuns{times: make([]time.Duration, len(cells))}
	}
	e := zcache.NewExperiment(p)
	rs := make([]zcache.RunResult, len(cells))
	root := tr.begin("serial_pass", -1, uint64(pass))
	defer tr.end(root)
	for i, c := range cells {
		h := tr.begin("sim.Experiment.Run", root, uint64(i))
		t := time.Now()
		r, err := e.Run(c.Workload, c.Design, c.Policy, c.Lookup)
		d := time.Since(t)
		tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("serial %s/%s: %w", c.Workload.Name, c.Design.Label, err)
		}
		rs[i] = r
		if pass == 0 {
			prev.times[i] = d
			prev.firstTotal += d
		} else {
			prev.times[i] = min(prev.times[i], d)
		}
	}
	prev.results = append(prev.results, rs)
	return prev, nil
}
