package main

import (
	"context"
	"io"
	"net"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"zcache/internal/zkv"
)

// startServer boots a fresh in-process zcached equivalent and returns its
// address. Cleanup drains it.
func startServer(t *testing.T) string {
	t.Helper()
	store, err := zkv.Open(zkv.Config{Shards: 2, Ways: 4, Rows: 1024, Levels: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := zkv.NewServer(store, zkv.ServerConfig{})
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-errc
	})
	return ln.Addr().String()
}

// runCaptured runs the command with args and returns its exit code and
// stdout lines.
func runCaptured(t *testing.T, args ...string) (int, []string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	code := run(args)
	os.Stdout = stdout
	w.Close()
	text := <-out
	r.Close()
	t.Logf("zkvbench %s → exit %d\n%s", strings.Join(args, " "), code, text)
	return code, strings.Split(strings.TrimSuffix(text, "\n"), "\n")
}

// matchLines requires one line per pattern, in order, and returns each
// pattern's submatches.
func matchLines(t *testing.T, lines []string, patterns ...string) [][]string {
	t.Helper()
	if len(lines) != len(patterns) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(patterns), strings.Join(lines, "\n"))
	}
	subs := make([][]string, len(lines))
	for i, p := range patterns {
		subs[i] = regexp.MustCompile("^" + p + "$").FindStringSubmatch(lines[i])
		if subs[i] == nil {
			t.Fatalf("line %d %q does not match %q", i+1, lines[i], p)
		}
	}
	return subs
}

const (
	summaryLine = `(\d+) ops in \S+: \d+ ops/s \((\d+) gets, (\d+) sets, hit rate ([0-9.]+), 0 errors\)`
	latencyLine = `latency: p50 \S+  p99 \S+  p999 \S+  max \S+`
	oracleLine  = `oracle: (\d+) GET hits verified, 0 wrong`
)

// TestLoadSingleNode pins the single-node report: its lines, and — with
// one client against a fresh server — the exact op mix and the oracle's
// verified-hit count, which are deterministic in the seed.
func TestLoadSingleNode(t *testing.T) {
	addr := startServer(t)
	code, lines := runCaptured(t, "-addr", addr, "-clients", "1", "-ops", "20000",
		"-keys", "4096", "-get-frac", "0.5", "-seed", "3", "-oracle")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	m := matchLines(t, lines, summaryLine, latencyLine, oracleLine)
	if got := [4]string{m[0][1], m[0][2], m[0][3], m[2][1]}; got != [4]string{"20000", "9934", "10066", "6242"} {
		t.Fatalf("ops/gets/sets/verified = %v", got)
	}
}

// TestLoadWriters: contention mode adds the writer line, and the writers'
// values must verify under the measured clients' oracle.
func TestLoadWriters(t *testing.T) {
	addr := startServer(t)
	code, lines := runCaptured(t, "-addr", addr, "-clients", "2", "-ops", "20000",
		"-keys", "2048", "-get-frac", "0.8", "-seed", "5", "-oracle", "-writers", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	m := matchLines(t, lines, summaryLine, latencyLine, oracleLine,
		`contention: 1 writers sustained (\d+) sets \(\d+ sets/s, 0 errors\) during the window`)
	if m[0][1] != "20000" || m[3][1] == "0" {
		t.Fatalf("ops %s, writer sets %s", m[0][1], m[3][1])
	}
}

// TestEquivOutput pins the equivalence replay's stdout, single store and
// three-node ring, byte for byte.
func TestEquivOutput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{
			[]string{"-equiv", "canneal", "-ways", "4", "-rows", "256", "-levels", "2", "-accesses", "20000"},
			[]string{
				"workload canneal: 20000 accesses, 10767 hits, 9233 misses, 8209 victims",
				"MATCH: zkv and simulator agree bit-for-bit",
			},
		},
		{
			[]string{"-equiv", "canneal", "-equiv-nodes", "3", "-vnodes", "16",
				"-ways", "4", "-rows", "256", "-levels", "2", "-accesses", "20000"},
			[]string{
				"workload canneal across 3 nodes: 20000 accesses",
				"node node0: 7148 accesses, 5633 hits, 1515 misses, 518 victims — match",
				"node node1: 6645 accesses, 5373 hits, 1272 misses, 282 victims — match",
				"node node2: 6207 accesses, 5267 hits, 940 misses, 21 victims — match",
				"MATCH: every node's zkv store and simulator reference agree bit-for-bit",
			},
		},
	} {
		code, lines := runCaptured(t, tc.args...)
		if code != 0 {
			t.Fatalf("%v: exit %d", tc.args, code)
		}
		if strings.Join(lines, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%v: got\n%s\nwant\n%s", tc.args, strings.Join(lines, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}
