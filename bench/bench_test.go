package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpec checks that BENCHMARK.json describes this program: its one
// path is this directory, its command runs this directory's wrapper,
// its workloads are exactly the implemented ones, and every metric name
// is used once. Every end-to-end bound is a share of at most maxBound,
// except that of setup_s, which must be the widest and at most 25 %.
func TestSpec(t *testing.T) {
	sp := testSpec(t)
	if len(sp.Paths) != 1 || sp.Paths[0] != "bench" {
		t.Errorf("paths = %q, want [bench]", sp.Paths)
	}
	if len(sp.Command) != 2 || sp.Command[1] != "bench/run.sh" {
		t.Errorf("command = %q, want it to run bench/run.sh", sp.Command)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, %d are implemented", len(sp.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is defined twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	var setup *metricSpec
	for i, m := range sp.EndToEnd {
		if m.Name == "setup_s" {
			setup = &sp.EndToEnd[i]
		} else if m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("metric %s: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
		}
	}
	if setup == nil {
		t.Fatal("no setup_s metric")
	}
	for _, m := range sp.EndToEnd {
		if m.Bound > setup.Bound || setup.Bound > 0.25 {
			t.Errorf("setup_s bound %v: want the widest, at most 0.25 (%s has %v)", setup.Bound, m.Name, m.Bound)
		}
	}
}

// maxBound is the widest bound a run-time metric may have: just under
// setup_s's 25 %. Ten seeds on a host loaded by other tenants spread
// op_ms_min by up to 21 % (README.md), so a narrower bound would refuse
// unchanged code; a wider one would let a change lose that much speed
// and still pass.
const maxBound = 0.24

// TestScaleRange checks that -scale is refused outside 1..maxScale,
// where some workload would run windows or fleets of no jobs.
func TestScaleRange(t *testing.T) {
	for _, s := range []string{"0", "101", "5000"} {
		err := cli([]string{"-scale", s}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-scale") {
			t.Errorf("-scale %s: err = %v, want it refused", s, err)
		}
	}
}

// TestWorkloads runs every workload at -scale 100 for the minimum op
// count, untraced and traced. Every metric of BENCHMARK.json must be
// emitted once with its unit, no op may fail, equal seeds must give
// equal sim digests and another seed a different one.
func TestWorkloads(t *testing.T) {
	sp := testSpec(t)
	out := t.TempDir()
	cfg := func(seed int64, traced bool) config {
		return config{seed: seed, scale: 100, traced: traced, out: out}
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			a := mustExecute(t, w, sp, cfg(1, false))
			checkPrinted(t, sp, a, sp.EndToEnd)
			for name, v := range a.EndToEnd {
				if v.Value <= 0 {
					t.Errorf("%s = %v, want a positive value", name, v.Value)
				}
			}
			if b := mustExecute(t, w, sp, cfg(1, false)); b.SimDigest != a.SimDigest {
				t.Errorf("seed 1 gave sim digests %s and %s", a.SimDigest, b.SimDigest)
			}
			if c := mustExecute(t, w, sp, cfg(2, false)); c.SimDigest == a.SimDigest {
				t.Errorf("seeds 1 and 2 gave the same sim digest %s", a.SimDigest)
			}

			tr := mustExecute(t, w, sp, cfg(1, true))
			checkPrinted(t, sp, tr, sp.PerLayer)
			if tr.SimDigest != a.SimDigest {
				t.Errorf("tracing changed the sim digest: %s, untraced %s", tr.SimDigest, a.SimDigest)
			}
			var trace struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := readJSON(filepath.Join(out, fmt.Sprintf("trace-%s-seed1.json", w.name)), &trace); err != nil {
				t.Fatal(err)
			}
			if len(trace.TraceEvents) == 0 || trace.TraceEvents[0].Ph != "X" {
				t.Errorf("trace holds no complete events: %+v", trace.TraceEvents)
			}
		})
	}
}

func mustExecute(t *testing.T, w *workload, sp *spec, cfg config) *record {
	t.Helper()
	rec, err := execute(w, sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 10 {
		t.Fatalf("seed %d: correct=%v, %d of %d ops failed: %q", cfg.seed, rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
	}
	return rec
}

// checkPrinted checks the printed form of a record: one line per metric
// with its unit, and a last line holding exactly the result keys and
// every metric.
func checkPrinted(t *testing.T, sp *spec, rec *record, metrics []metricSpec) {
	t.Helper()
	var buf bytes.Buffer
	if err := printRecord(&buf, sp, rec); err != nil {
		t.Fatal(err)
	}
	lines := make(map[string]int)
	var last string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		last = sc.Text()
		f := strings.Fields(last)
		if len(f) == 4 && f[0] == rec.Workload {
			lines[f[1]+" "+f[3]]++
		}
	}
	var result map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &result); err != nil {
		t.Fatalf("last line %q is not JSON: %v", last, err)
	}
	if len(result) != 4 || result["correct"] == nil || result["attempted"] == nil || result["failed"] == nil {
		t.Errorf("result line has keys other than correct, attempted, failed and metrics: %s", last)
	}
	var got map[string]metricValue
	if err := json.Unmarshal(result["metrics"], &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(metrics) {
		t.Errorf("result line holds %d metrics, BENCHMARK.json %d", len(got), len(metrics))
	}
	for _, m := range metrics {
		if lines[m.Name+" "+m.Unit] != 1 {
			t.Errorf("%s: metric %s in %s printed %d times", rec.Workload, m.Name, m.Unit, lines[m.Name+" "+m.Unit])
		}
		if v, ok := got[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("%s: result line has %s = %+v, want unit %s", rec.Workload, m.Name, v, m.Unit)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the regression check uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 7}, 4.5, 7.5},
		{[]float64{3}, 3, 3},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// TestVerdict covers each verdict of the comparison.
func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_ms_min", Better: "lower", Bound: 0.1}
	ten := func(x float64) []float64 {
		return []float64{x, x * 1.01, x * 0.99, x, x * 1.005, x * 0.995, x, x * 1.01, x * 0.99, x}
	}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", ten(10), ten(10), "within bound"},
		{"faster", ten(10), ten(8), "better"},
		{"slower", ten(10), ten(12), "worse"},
		{"noisy", []float64{5, 10, 15, 20}, []float64{6, 11, 14, 19}, "unresolved"},
		{"noisy but every run faster", []float64{20, 30, 40, 50}, []float64{5, 8, 11, 14}, "better"},
	} {
		if got := verdict(lower, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}
