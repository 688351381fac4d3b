package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// selfShareSpans are the spans whose self time, as a share of the timed
// phase, is a per-layer metric ("<name>.self_pct"). sched.source_next is
// not a span but the summed time of every JobSource.Next call.
var selfShareSpans = []string{
	"driver.reconfigure", "accel.filter", "hwicap.reconfigure", "sched.source_next", "bench.check",
}

// span is one timed call into a layer, made from the benchmark's side.
type span struct {
	name           string
	op             int // timed ops done when it began; -1 during set-up
	parent         int // index of the enclosing span; -1 for a root
	start, end     time.Duration
	events, cycles uint64 // kernel events and simulated cycles inside it
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer (an untraced run) ignores every call, so the untraced path
// pays one nil check per span.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	op     int
	// extra is host time measured outside spans, by name.
	extra map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), op: -1, extra: make(map[string]time.Duration)}
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: time.Since(t.origin)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, and with it any span still open inside it (left
// open by a call that failed half-way).
func (t *tracer) end(id int, events, cycles uint64) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	for n := len(t.open); n > 0; n-- {
		top := t.open[n-1]
		t.open = t.open[:n-1]
		t.spans[top].end = now
		if top == id {
			break
		}
	}
	t.spans[id].events, t.spans[id].cycles = events, cycles
}

// spanStat sums the spans of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// stats returns, per span name in order of first appearance, the count,
// the total time and the self time: each span's duration minus the
// time of its direct children.
func (t *tracer) stats() []spanStat {
	self := t.self()
	var out []spanStat
	idx := make(map[string]int)
	for i, s := range t.spans {
		j, ok := idx[s.name]
		if !ok {
			j = len(out)
			idx[s.name] = j
			out = append(out, spanStat{Name: s.name})
		}
		out[j].Count++
		out[j].TotalMs += ms(s.end - s.start)
		out[j].SelfMs += ms(self[i])
	}
	names := make([]string, 0, len(t.extra))
	for name := range t.extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := ms(t.extra[name])
		out = append(out, spanStat{Name: name, TotalMs: d, SelfMs: d})
	}
	return out
}

// self returns each span's self time: its duration minus that of its
// direct children.
func (t *tracer) self() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	return self
}

// selfTime is the summed self time of the timed-phase spans of one
// name, plus any time measured outside spans under that name.
func (t *tracer) selfTime(name string) time.Duration {
	d := t.extra[name]
	for i, s := range t.self() {
		if t.spans[i].name == name && t.spans[i].op >= 0 {
			d += s
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"op": s.op, "kernel_events": s.events, "sim_cycles": s.cycles},
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// cpuPackages are the packages the CPU profile is split over; time in
// any other package counts as "other".
var cpuPackages = []string{
	"sim", "axi", "dma", "fpga", "accel", "hwicap", "soc", "driver", "bitstream",
	"sched", "place", "cluster", "hist", "runtime",
}

// cpuShares folds the flat time of a CPU profile of this binary by
// package, in % of all samples, using go tool pprof -top.
func cpuShares(profile string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", exe, profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	shares := make(map[string]float64, len(cpuPackages)+1)
	for _, p := range cpuPackages {
		shares[p] = 0
	}
	shares["other"] = 0
	sc := bufio.NewScanner(bytes.NewReader(out))
	rows := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: unexpected row %q", sc.Text())
		}
		shares[packageOf(strings.Join(f[5:], " "))] += pct
	}
	if !rows {
		return nil, fmt.Errorf("go tool pprof: no rows in %q", out)
	}
	return shares, nil
}

// packageOf maps a profiled function name to its share bucket.
func packageOf(fn string) string {
	path, _, _ := strings.Cut(fn, "[") // type arguments may hold other paths
	if i := strings.LastIndex(path, "/"); i >= 0 {
		if j := strings.Index(path[i:], "."); j >= 0 {
			path = path[:i+j]
		}
	} else if j := strings.Index(path, "."); j >= 0 {
		path = path[:j]
	}
	switch {
	case path == "runtime" || path == "iter" || strings.HasPrefix(path, "runtime/") || strings.HasPrefix(path, "internal/runtime/"):
		return "runtime" // iter.Pull is the glue of the kernel's coroutine switch
	case strings.HasPrefix(path, "rvcap/internal/"):
		pkg := strings.TrimPrefix(path, "rvcap/internal/")
		for _, p := range cpuPackages {
			if p == pkg {
				return p
			}
		}
	}
	return "other"
}
