// Command bench is the repository's benchmark. It runs the simulator's
// workloads, checks every simulated output, and prints one line per
// metric, "<workload> <metric> <value> <unit>". The workloads and the
// metrics, with their units, directions and regression bounds, are
// defined in BENCHMARK.json at the repository root. Run it from the
// root through bench/run.sh, which builds it first:
//
//	bash bench/run.sh                                   # every workload, each in a fresh child process
//	bash bench/run.sh --workload case-study --seed 3    # one workload in this process; the last line is JSON
//	bash bench/run.sh --trace 1 --out DIR               # per-layer metrics, Perfetto traces and CPU profiles
//	bash bench/run.sh --compare A.json B.json           # medians, quartiles and a verdict per metric
//
// README.md in this directory describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// spec is BENCHMARK.json: the single definition of the workloads and
// metrics that this program, its test and the comparison all read.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	for _, w := range sp.Workloads {
		if findWorkload(w.Name) == nil {
			return nil, fmt.Errorf("%s: workload %q is not implemented", path, w.Name)
		}
	}
	return &sp, nil
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one workload run measured.
type record struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Scale     int     `json:"scale"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// OpsPerS, OpMsP50 and OpMsP90 are the throughput and the median and
	// 90th-percentile op host times. They are reported but are not
	// end-to-end metrics: load from other tenants of the host moves them
	// far more than any bound could allow (README.md).
	OpsPerS float64 `json:"ops_per_s"`
	OpMsP50 float64 `json:"op_ms_p50"`
	OpMsP90 float64 `json:"op_ms_p90"`
	// SimDigest is the sha256 of the simulated outputs of the first
	// minOps ops: equal seeds must give equal digests on every host.
	SimDigest string `json:"sim_digest"`
	// PaperErrPct is the largest relative error against the paper's
	// measurements; absent where the paper has none to compare with.
	PaperErrPct *float64               `json:"paper_err_pct,omitempty"`
	Problems    []string               `json:"problems,omitempty"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	Spans       []spanStat             `json:"spans,omitempty"`
}

// execute runs one workload and collects its record. An error means the
// workload could not run at all; failed ops and checks are in the record.
func execute(w *workload, sp *spec, cfg config) (*record, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs))
	r := newRun(w.name, w.minOps, cfg)
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := &record{
		Workload: w.name, Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds.Seconds(), Traced: cfg.traced,
		Correct: r.failed == 0, Attempted: len(r.ops), Failed: r.failed,
		OpsPerS: float64(len(r.ops)) / r.elapsed.Seconds(),
		OpMsP50: ms(quantile(r.ops, 0.50)), OpMsP90: ms(quantile(r.ops, 0.90)),
		SimDigest: r.digestHex(), Problems: r.problems,
	}
	if r.paperErr >= 0 {
		rec.PaperErrPct = &r.paperErr
	}
	var err error
	if rec.EndToEnd, err = values(sp.EndToEnd, r.endToEnd(), true); err != nil {
		return nil, err
	}
	if !cfg.traced {
		return rec, nil
	}
	layer, err := r.perLayer()
	if err != nil {
		return nil, err
	}
	if rec.PerLayer, err = values(sp.PerLayer, layer, false); err != nil {
		return nil, err
	}
	rec.Spans = r.tr.stats()
	return rec, r.tr.writeChrome(filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed)))
}

// values attaches the spec's units to measured values. Every measured
// name must be in the spec. A per-layer metric a workload did not set
// is 0: that layer did no work. An end-to-end metric must be set.
func values(specs []metricSpec, got map[string]float64, required bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := got[m.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = metricValue{v, m.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// printRecord prints a run's metrics, one per line in spec order, and
// then the result line: correct, attempted, failed and the metrics as
// JSON, which tools that run the benchmark read.
func printRecord(w io.Writer, sp *spec, rec *record) error {
	specs, vals := sp.EndToEnd, rec.EndToEnd
	if rec.Traced {
		specs, vals = sp.PerLayer, rec.PerLayer
		for _, s := range rec.Spans {
			fmt.Fprintf(w, "%s span %s count=%d total_ms=%.3f self_ms=%.3f\n", rec.Workload, s.Name, s.Count, s.TotalMs, s.SelfMs)
		}
	}
	for _, m := range specs {
		fmt.Fprintf(w, "%s %s %.6g %s\n", rec.Workload, m.Name, vals[m.Name].Value, m.Unit)
	}
	fmt.Fprintf(w, "%s ops %d count\n", rec.Workload, rec.Attempted)
	fmt.Fprintf(w, "%s ops_per_s %.6g 1/s\n", rec.Workload, rec.OpsPerS)
	fmt.Fprintf(w, "%s op_ms_p50 %.6g ms\n", rec.Workload, rec.OpMsP50)
	fmt.Fprintf(w, "%s op_ms_p90 %.6g ms\n", rec.Workload, rec.OpMsP90)
	if rec.PaperErrPct != nil {
		fmt.Fprintf(w, "%s paper_err_pct %.4f %%\n", rec.Workload, *rec.PaperErrPct)
	}
	fmt.Fprintf(w, "%s sim_digest %s sha256\n", rec.Workload, rec.SimDigest)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "%s FAILED %s\n", rec.Workload, p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// benchProcs is the GOMAXPROCS workloads run at. The simulator runs on
// one thread, so one P makes the results independent of the host's core
// count, and the garbage collector's work shows in the host times
// instead of hiding on an idle core. Only runner.speedup uses more.
const benchProcs = 1

// hostInfo says where and from what a results file was measured, so
// files from different hosts or commits are never compared blindly.
type hostInfo struct {
	HostCores  int    `json:"host_cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
}

func host() hostInfo {
	h := hostInfo{
		HostCores: runtime.NumCPU(), GOMAXPROCS: benchProcs,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Revision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

// results is a results file: every run of one invocation.
type results struct {
	Host    hostInfo `json:"host"`
	Seed    int64    `json:"seed"`
	Scale   int      `json:"scale"`
	Seconds float64  `json:"seconds"`
	Traced  bool     `json:"traced"`
	Sets    int      `json:"sets"`
	Runs    []record `json:"runs"`
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

type options struct {
	workload, out, record string
	seed                  int64
	seconds               float64
	trace, scale, sets    int
	compare               bool
}

// specFile is the benchmark definition, read from the repository root,
// where the benchmark is run.
const specFile = "BENCHMARK.json"

// maxScale is the largest -scale: the smoke-test size, at which every
// workload still has jobs for each board and a window of several jobs.
const maxScale = 100

var errFailed = errors.New("some ops failed or some outputs were wrong")

func main() {
	if err := cli(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func cli(args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", -1, "length of each workload's timed phase (default: run_seconds in the spec)")
	fs.IntVar(&o.trace, "trace", 0, "1 for a traced run: per-layer metrics, spans and a CPU profile")
	fs.IntVar(&o.scale, "scale", 1, fmt.Sprintf("divide every op's size by this, at most %d (smoke runs; floor 10 ops)", maxScale))
	fs.IntVar(&o.sets, "sets", 1, "runs of every workload, with seeds seed, seed+1, ... (all-workloads mode)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for results, traces and profiles")
	fs.StringVar(&o.record, "record", "", "also write the run's full record to this file (single-workload mode)")
	fs.BoolVar(&o.compare, "compare", false, "compare the results files given as arguments, the first as the base")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	if o.scale < 1 || o.scale > maxScale {
		return fmt.Errorf("-scale %d: want 1 to %d", o.scale, maxScale)
	}
	if o.sets < 1 {
		return fmt.Errorf("-sets must be at least 1")
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	if o.compare {
		if fs.NArg() < 2 {
			return fmt.Errorf("-compare needs at least two results files")
		}
		return compare(stdout, sp, fs.Args())
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.seconds < 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if o.workload == "" {
		return runAll(stdout, sp, o)
	}
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	rec, err := execute(w, sp, config{
		seed: o.seed, seconds: time.Duration(o.seconds * float64(time.Second)),
		scale: o.scale, traced: o.trace == 1, out: o.out,
	})
	if err != nil {
		return err
	}
	if o.record != "" {
		if err := writeJSON(o.record, rec); err != nil {
			return err
		}
	}
	if err := printRecord(stdout, sp, rec); err != nil {
		return err
	}
	if !rec.Correct {
		return errFailed
	}
	return nil
}

// runAll runs every workload of the spec, -sets times, each run in a
// fresh child process so that heap left by one cannot slow the next. It
// writes the runs to results.json (results-trace.json when traced) in
// the output directory.
func runAll(stdout io.Writer, sp *spec, o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	name := "results.json"
	if o.trace == 1 {
		name = "results-trace.json"
	}
	res := results{Host: host(), Seed: o.seed, Scale: o.scale, Seconds: o.seconds, Traced: o.trace == 1, Sets: o.sets}
	failed := false
	for set := 0; set < o.sets; set++ {
		for _, w := range sp.Workloads {
			seed := o.seed + int64(set)
			recPath := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, seed, o.trace))
			os.Remove(recPath) // a stale record must not stand in for a failed run
			cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace), "-scale", fmt.Sprint(o.scale),
				"-out", o.out, "-record", recPath)
			cmd.Stdout, cmd.Stderr = stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.Name, seed, err)
				failed = true
			}
			var rec record
			if err := readJSON(recPath, &rec); err != nil {
				failed = true
				continue
			}
			res.Runs = append(res.Runs, rec)
		}
	}
	if err := writeJSON(filepath.Join(o.out, name), res); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "results: %s\n", filepath.Join(o.out, name))
	if o.trace == 1 {
		traceOverhead(stdout, sp, filepath.Join(o.out, "results.json"), res)
	}
	if failed {
		return errFailed
	}
	return nil
}

// traceOverhead prints, per workload, how much longer the fastest op
// took traced than in the untraced results file beside it, if there is
// one.
func traceOverhead(w io.Writer, sp *spec, untracedPath string, traced results) {
	var base results
	if err := readJSON(untracedPath, &base); err != nil {
		fmt.Fprintf(w, "trace.overhead_pct: no untraced results at %s\n", untracedPath)
		return
	}
	for _, wl := range sp.Workloads {
		b := median(sorted(runValues(base.Runs, wl.Name, "op_ms_min")))
		t := median(sorted(runValues(traced.Runs, wl.Name, "op_ms_min")))
		if b > 0 && t > 0 {
			fmt.Fprintf(w, "%s trace.overhead_pct %.2f %%\n", wl.Name, 100*(t-b)/b)
		}
	}
}
