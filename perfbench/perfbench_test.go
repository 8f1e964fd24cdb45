package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"zcache"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json these tests
// hold the program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// smokeSuite is a two-workload sim-suite on the test preset, small enough
// for a unit test; it is not pinned.
func smokeSuite() simSuite {
	return simSuite{preset: zcache.TestPreset(), workloads: []string{"gamess", "canneal"}}
}

// TestSmokeEveryMetric runs each workload briefly, untraced and traced, and
// checks that the result line is correct and carries every metric
// BENCHMARK.json names, with its unit.
func TestSmokeEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadFuncs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloadFuncs))
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(wl.Name+"/trace"+traced, func(t *testing.T) {
				if raceEnabled && wl.Name == "serve-churn" {
					t.Skip("under the race detector the store cannot sustain the ladder's reported rates")
				}
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", wl.Name, "--seed", "3", "--seconds", "1",
					"--trace", traced, "--scratch", t.TempDir()}
				if code := run(args, &stdout, &stderr, smokeSuite()); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				want := spec.EndToEnd
				if traced == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}

// TestOpStreamsFollowSeed pins the serving inputs to the seed: one seed
// gives identical keys, values and op streams, another seed changes them.
func TestOpStreamsFollowSeed(t *testing.T) {
	for conn := 0; conn < serveConns; conn++ {
		a := streamDigest(opStream(7, conn, 1<<12, churnMix, 1<<14))
		b := streamDigest(opStream(7, conn, 1<<12, churnMix, 1<<14))
		c := streamDigest(opStream(8, conn, 1<<12, churnMix, 1<<14))
		if a != b {
			t.Errorf("conn %d: one seed gave streams %s and %s", conn, a, b)
		}
		if a == c {
			t.Errorf("conn %d: seeds 7 and 8 gave the same stream %s", conn, a)
		}
	}
	k1, k2, k3 := newKeySpace(7, 64), newKeySpace(7, 64), newKeySpace(8, 64)
	for r := range k1.keys {
		if !bytes.Equal(k1.keys[r], k2.keys[r]) || !bytes.Equal(k1.vals[r], k2.vals[r]) {
			t.Fatalf("rank %d: one seed gave different key or value bytes", r)
		}
		if bytes.Equal(k1.keys[r], k3.keys[r]) {
			t.Fatalf("rank %d: seeds 7 and 8 gave the same key", r)
		}
	}
}

// TestSimDigestsFollowSeed runs the smoke suite's exact cells twice per
// seed: one seed reproduces the digest, another seed changes it.
func TestSimDigestsFollowSeed(t *testing.T) {
	suite := smokeSuite()
	ws, err := zcache.SuiteWorkloads(suite.workloads)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(seed uint64) string {
		rs, err := zcache.NewExperiment(suite.seeded(seed)).RunMatrix(context.Background(), suiteCells(ws, false))
		if err != nil {
			t.Fatal(err)
		}
		d, err := suiteDigest(rs)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b, c := digest(1), digest(1), digest(2)
	if a != b {
		t.Errorf("seed 1 gave digests %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 gave the same digest %s", a)
	}
	if got := suite.seeded(1).Seed; got != suite.preset.Seed {
		t.Errorf("seed 1 changed the preset seed to %#x", got)
	}
}

// streamDigest fingerprints an op stream (FNV-1a).
func streamDigest(ops []op) string {
	h := uint64(14695981039346656037)
	for _, o := range ops {
		for _, b := range []byte{o.code, byte(o.rank), byte(o.rank >> 8), byte(o.rank >> 16), byte(o.rank >> 24)} {
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}

func TestHistQuantiles(t *testing.T) {
	var h latHist
	for us := 1; us <= 1000; us++ {
		h.add(time.Duration(us) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500.5}, {0.99, 990}, {0, 1}} {
		if got := h.quantile(c.q); got < c.want*0.98 || got > c.want*1.02 {
			t.Errorf("q%.2f = %.2f us, want %.2f within 2%%", c.q, got, c.want)
		}
	}
	for _, ns := range []uint64{0, 63, 64, 127, 128, 1 << 20, 1<<40 + 12345} {
		lo, w := histBounds(histBucket(ns))
		if float64(ns) < lo || float64(ns) >= lo+w {
			t.Errorf("%d ns lands in bucket [%v, %v)", ns, lo, lo+w)
		}
	}
}
