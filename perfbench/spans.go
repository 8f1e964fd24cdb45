package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the calls this package makes into each
// layer: name, start, end, parent span and the id shared by one request's
// (or burst's, or cell's) spans. Spans stay in memory and are written out
// when the run ends. A nil *tracer records nothing, so untraced runs pay
// one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	limit int
	lost  int
}

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the parent span, -1 for a root
	ID     uint64 `json:"id"`
}

// maxSpans bounds the in-memory span log; spans past it are counted as
// lost and left out of the self-time table.
const maxSpans = 1 << 18

func newTracer() *tracer {
	return &tracer{t0: time.Now(), limit: maxSpans, spans: make([]span, 0, 1<<12)}
}

// begin opens a span and returns its handle (-1 when not recorded).
func (t *tracer) begin(name string, parent int32, id uint64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.limit {
		t.lost++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, ID: id})
	return int32(len(t.spans) - 1)
}

// end closes span h.
func (t *tracer) end(h int32) {
	if t == nil || h < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// layerTime is one span name's aggregate.
type layerTime struct {
	count      int
	total, own time.Duration
}

// selfTimes aggregates closed spans by name. A span's self time is its
// duration minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	childCover := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent >= 0 {
			childCover[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.count++
		lt.total += time.Duration(d)
		lt.own += time.Duration(d - min(childCover[i], d))
	}
	return out
}

// durations returns the durations of every closed span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

// report prints the self-time table, heaviest layer first.
func (t *tracer) report(w io.Writer) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].own > st[names[j]].own })
	fmt.Fprintf(w, "trace: %d spans (%d past the in-memory limit not recorded)\n", len(t.spans), t.lost)
	fmt.Fprintf(w, "trace: %-26s %9s %12s %12s %12s\n", "span", "count", "total", "self", "self/op")
	for _, n := range names {
		lt := st[n]
		fmt.Fprintf(w, "trace: %-26s %9d %12s %12s %12s\n", n, lt.count,
			lt.total.Round(time.Microsecond), lt.own.Round(time.Microsecond),
			(lt.own / time.Duration(lt.count)).Round(time.Nanosecond))
	}
}

// writeFile writes the span log as JSON lines to dir/name.
func (t *tracer) writeFile(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finishTrace prints the self-time table and writes the span log.
func finishTrace(t *tracer, opt options, w io.Writer) error {
	t.report(w)
	path, err := t.writeFile(filepath.Join(opt.scratch, "traces"),
		fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed))
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(w, "trace: spans written to %s\n", path)
	return nil
}
