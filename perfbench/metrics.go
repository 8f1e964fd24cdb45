package main

import (
	"fmt"
	"slices"
	"time"
)

// metricDef names one reported metric. system is "serve" or "sim" for a
// per-layer metric that only one system's workloads exercise; a workload of
// the other system reports it as 0 (the layer did no work). BENCHMARK.json
// lists the same names and units.
type metricDef struct {
	name, unit, system string
}

// endToEnd are the metrics a user of either system sees, one definition per
// workload (README.md has the table):
//
//	throughput_per_s  serve-read: requests/s, closed loop
//	                  serve-churn: requests/s of a closed loop on the churn
//	                  stream (capacity)
//	                  sim-suite: cells completed per second over both suites
//	p50_us, p99_us    serve-read: request latency
//	                  serve-churn: request latency at the middle ladder rate
//	                  (p50) and at the three reported rates (p99)
//	                  sim-suite: one cell's simulation time (serial passes)
//	hit_ratio         serve-*: GET hits / GETs; sim-suite: L2 hits / accesses
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"rss_mb", "MiB", ""},
	{"throughput_per_s", "1/s", ""},
	{"p50_us", "us", ""},
	{"p99_us", "us", ""},
	{"hit_ratio", "ratio", ""},
}

// perLayer are the traced run's metrics, each measured at the calls this
// package makes into one layer.
var perLayer = []metricDef{
	{"zkv.get_ns", "ns", "serve"},
	{"zkv.get_locked_frac", "ratio", "serve"},
	{"zkv.set_ns", "ns", "serve"},
	{"zkv.del_ns", "ns", "serve"},
	{"zkv.relocations_per_set", "count", "serve"},
	{"zkv.evictions_per_set", "count", "serve"},
	{"zkv.walk_depth_mean", "count", "serve"},
	{"slotstore.set_ns", "ns", "serve"},
	{"slotstore.open_s", "s", "serve"},
	{"zkvproto.encode_ns", "ns", "serve"},
	{"zkvproto.decode_ns", "ns", "serve"},
	{"zkvproto.flush_us", "us", "serve"},
	{"zkvproto.reply_wait_us", "us", "serve"},
	{"zkvproto.ops_per_flush", "count", "serve"},
	{"ladder.rung1_ns", "ns", "serve"},
	{"ladder.rung2_ns", "ns", "serve"},
	{"ladder.rung3_ns", "ns", "serve"},
	{"server.wire_ns_per_op", "ns", "serve"},
	{"ladder.unattributed_frac", "ratio", "serve"},
	{"server.shed_requests", "count", "serve"},
	{"server.shed_conns", "count", "serve"},
	{"loadgen.late_p99_us", "us", "serve"},
	{"loadgen.backlog_max", "count", "serve"},
	{"workloads.gen_ns_per_access", "ns", "sim"},
	{"sim.cell_s", "s", "sim"},
	{"sim.accesses_per_s", "1/s", "sim"},
	{"cache.access_ns.sa4", "ns", "sim"},
	{"cache.access_ns.z4_52", "ns", "sim"},
	{"cache.candidates_per_miss", "count", "sim"},
	{"cache.relocations_per_miss", "count", "sim"},
	{"sim.capture_s", "s", "sim"},
	{"sim.l2_refs", "count", "sim"},
	{"sim.replay_ns_per_ref", "ns", "sim"},
	{"sample.plan_s", "s", "sim"},
	{"sample.run_s", "s", "sim"},
	{"sample.measured_frac", "ratio", "sim"},
	{"sample.dew_skip_frac", "ratio", "sim"},
	{"sample.max_rel_err", "ratio", "sim"},
	{"runlab.warm_rerun_s", "s", "sim"},
	{"runlab.cells_computed", "count", "sim"},
	{"trace.overhead_frac", "ratio", ""},
}

// unitsOf maps metric names to units for the human-readable report.
func unitsOf(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

// zeroOtherSystem fills the per-layer metrics of the system a workload
// does not exercise with 0.
func zeroOtherSystem(layers map[string]float64, system string) {
	for _, d := range perLayer {
		if d.system != "" && d.system != system {
			layers[d.name] = 0
		}
	}
}

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks; sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// windowSet collects one statistic per measurement window, noting the
// windows that host steal time overlapped (see stealLog). The development
// VM's hypervisor takes its vCPUs away in bursts, and its neighbours slow
// it in ways no counter shows; both only ever inflate a latency or deflate
// a rate. A window set is summarized by the best decile — the 10th
// percentile of a latency, the 90th of a rate — over the windows free of
// steal when there are at least five, and over all windows otherwise: what
// the program achieves between the disturbances. A regression that slows
// every window moves it; one confined to fewer than nine windows in ten
// does not (the README records this limit).
type windowSet struct {
	quiet, all []float64
}

func (s *windowSet) add(v float64, disturbed bool) {
	s.all = append(s.all, v)
	if !disturbed {
		s.quiet = append(s.quiet, v)
	}
}

func (s *windowSet) merge(o *windowSet) {
	s.all = append(s.all, o.all...)
	s.quiet = append(s.quiet, o.quiet...)
}

func (s *windowSet) pick() []float64 {
	if len(s.quiet) >= 5 {
		return s.quiet
	}
	return s.all
}

// low summarizes a latency; high summarizes a rate.
func (s *windowSet) low() float64 { return sortedQuantile(s.pick(), 0.1) }

func (s *windowSet) high() float64 { return sortedQuantile(s.pick(), 0.9) }

func (s *windowSet) describe() string {
	return fmt.Sprintf("best decile of %d windows, %d of them free of host steal", len(s.pick()), len(s.quiet))
}

func sortedQuantile(vs []float64, q float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return quantile(s, q)
}

// median sorts a copy of vs and returns its middle value.
func median(vs []float64) float64 { return sortedQuantile(vs, 0.5) }

// durQuantiles sorts ds in place and returns the requested quantiles in
// microseconds.
func durQuantiles(ds []time.Duration, qs ...float64) []float64 {
	slices.Sort(ds)
	f := make([]float64, len(ds))
	for i, d := range ds {
		f[i] = float64(d) / 1e3
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(f, q)
	}
	return out
}

// setupMedian runs setup n times, tearing down all but the last instance,
// and returns the kept instance with the median set-up time in seconds.
// Repeating set-up is what makes the reported set-up time steady enough to
// gate on; the kept instance is the one the workload measures.
func setupMedian[T any](n int, setup func() (T, error), teardown func(T) error) (T, float64, error) {
	var last T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			if err := teardown(v); err != nil {
				return last, 0, err
			}
		}
		last = v
	}
	return last, median(times), nil
}
