// Command perfbench is the repository's end-to-end benchmark. One process
// runs one named workload against the repository's two systems — the zkv
// serving stack (serve-read, serve-churn) and the paper-reproduction
// simulator (sim-suite) — checks that every output is correct, and prints
// the measured metrics by name with their units. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run records spans around every call it makes into a layer and reports the
// per-layer set instead. Layers are only ever timed from outside, at the
// calls this package makes into them.
//
// Usage (from the repository root; run.sh builds and then runs it):
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, defaultSuite()))
}

// options are the parsed command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scratch  string // directory for temporary stores and trace output
}

// outcome is what one workload run hands back to run for reporting.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	checks    []check
}

// check is one correctness verdict printed with the report.
type check struct {
	name   string
	ok     bool
	detail string
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadFunc runs one workload and reports its metrics. The report
// writer receives the human-readable lines printed before the JSON result.
type workloadFunc func(opt options, suite simSuite, rep io.Writer) (*outcome, error)

var workloadFuncs = map[string]workloadFunc{
	"serve-read":  runServeRead,
	"serve-churn": runServeChurn,
	"sim-suite":   runSimSuite,
}

func run(args []string, stdout, stderr io.Writer, suite simSuite) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "", "workload: serve-read | serve-churn | sim-suite")
	fs.Uint64Var(&opt.seed, "seed", 1, "input seed; every generated key, value, op stream and preset derives from it")
	fs.Float64Var(&opt.seconds, "seconds", 10, "measured time per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&opt.scratch, "scratch", filepath.Join(".bench_build", "run"), "directory for temporary stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloadFuncs[opt.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want serve-read, serve-churn or sim-suite)\n", opt.workload)
		return 2
	}
	if opt.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	opt.trace = traceFlag == 1
	if err := os.MkdirAll(opt.scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	out, err := fn(opt, suite, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload, err)
		return 1
	}
	rss, err := peakRSSMiB()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out.e2e["rss_mb"] = rss

	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		res.Correct = false
		out.check("attempted", false, "no operations attempted")
	}
	for _, c := range out.checks {
		mark := "ok  "
		if !c.ok {
			mark = "FAIL"
			res.Correct = false
		}
		fmt.Fprintf(stdout, "check %s %-28s %s\n", mark, c.name, c.detail)
	}
	fmt.Fprintf(stdout, "error_rate %.6g (%d failed / %d attempted)\n",
		float64(out.failed)/float64(max(out.attempted, 1)), out.failed, out.attempted)
	fmt.Fprintf(stdout, "rss_mb %.1f MiB\n", rss)

	names := endToEnd
	values := out.e2e
	if opt.trace {
		names, values = perLayer, out.layers
	}
	for _, d := range names {
		v, ok := values[d.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", opt.workload, d.name)
			return 1
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", ln, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// printMetrics writes name/value/unit lines for the given metrics, sorted.
func printMetrics(w io.Writer, prefix string, m map[string]float64, units map[string]string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s%-28s %14.6g %s\n", prefix, n, m[n], units[n])
	}
}
