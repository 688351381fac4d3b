package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"rvcap/internal/sched"
)

// setupBuilds is how often a run builds its simulated system; setup_s
// is the median, so a few slow builds do not move it.
const setupBuilds = 11

// config is what one workload run is given.
type config struct {
	seed    int64
	seconds time.Duration
	scale   int
	traced  bool
	out     string
}

// run is one workload run in progress. The workload reports its set-up
// builds, its ops and their simulated outputs to it; run owns the time
// budget, the host-side measurements and, when traced, the spans.
type run struct {
	config
	name string
	// minOps ops run whatever the budget. They also fix what sim_digest
	// and the simulated per-layer values cover, so those depend on the
	// seed alone, never on host speed.
	minOps int

	setups    []time.Duration
	ops       []time.Duration
	rates     []float64 // per op: simulated Mcycles per host second
	failed    int
	problems  []string
	simCycles uint64 // simulated cycles the timed ops advanced
	events    uint64 // kernel events the timed ops fired

	digest hash.Hash
	// paperErr is the largest |simulated - paper| / paper seen, in %;
	// negative when the workload has no reference in the paper.
	paperErr float64
	// layer holds the per-layer values only the workload can measure.
	layer map[string]float64

	tr *tracer

	start      time.Time
	elapsed    time.Duration
	mem0, mem1 runtime.MemStats
	cpu0, cpu1 []metrics.Sample
	stopHeap   func() uint64
	peakHeap   uint64
	profile    *os.File
}

// cpuMetrics are the runtime's cumulative CPU-time estimates the GC
// share is computed from.
var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func newRun(name string, minOps int, cfg config) *run {
	r := &run{
		config:   cfg,
		name:     name,
		minOps:   max(10, minOps/cfg.scale),
		digest:   sha256.New(),
		paperErr: -1,
		layer:    make(map[string]float64),
	}
	if cfg.traced {
		r.tr = newTracer()
	}
	return r
}

// setup builds the workload's simulated system setupBuilds times and
// times every build. Each starts from a collected heap whose free memory
// went back to the OS, as in a fresh process: no build pays for garbage
// left by another, and none is spared the page faults of its DDR arrays
// by reusing pages another left behind.
func (r *run) setup(build func() error) error {
	for i := 0; i < setupBuilds; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := build(); err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(t0))
	}
	return nil
}

// startTimed begins the timed phase: a clean heap, memory and CPU
// counters, the heap sampler and, when traced, the CPU profile.
func (r *run) startTimed() error {
	runtime.GC()
	r.cpu0 = readCPU()
	runtime.ReadMemStats(&r.mem0)
	if r.traced {
		f, err := os.Create(filepath.Join(r.out, fmt.Sprintf("cpu-%s-seed%d.pprof", r.name, r.seed)))
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		r.profile = f
		r.tr.op = 0
	}
	r.stopHeap = sampleHeap()
	r.start = time.Now()
	return nil
}

// more reports whether the timed phase should run another op.
func (r *run) more() bool {
	return len(r.ops) < r.minOps || time.Since(r.start) < r.seconds
}

// inPrefix reports whether the next op is one of the first minOps timed
// ops (warm-up ops are not).
func (r *run) inPrefix() bool { return !r.start.IsZero() && len(r.ops) < r.minOps }

// addOp records one timed op: its host time, the simulated cycles and
// kernel events it advanced, and whether it failed to run or to pass
// its output checks.
func (r *run) addOp(d time.Duration, cycles, events uint64, err error) {
	r.ops = append(r.ops, d)
	if d > 0 {
		r.rates = append(r.rates, float64(cycles)*1e3/float64(d.Nanoseconds()))
	}
	r.simCycles += cycles
	r.events += events
	if err != nil {
		r.failed++
		if len(r.problems) < 5 {
			r.problems = append(r.problems, fmt.Sprintf("op %d: %v", len(r.ops)-1, err))
		}
	}
	if r.tr != nil {
		r.tr.op = len(r.ops)
	}
}

// paperCheck records the relative error of a simulated value against
// the paper's and fails when it exceeds paperTolPct.
func (r *run) paperCheck(what string, sim, paper float64) error {
	e := math.Abs(sim-paper) / paper * 100
	r.paperErr = max(r.paperErr, e)
	if e > paperTolPct {
		return fmt.Errorf("%s = %.2f is %.1f%% off the paper's %.2f", what, sim, e, paper)
	}
	return nil
}

func (r *run) stopTimed() error {
	r.elapsed = time.Since(r.start)
	r.peakHeap = r.stopHeap()
	runtime.ReadMemStats(&r.mem1)
	r.cpu1 = readCPU()
	if r.profile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return r.profile.Close()
}

// endToEnd computes the end-to-end metrics of the timed phase. The host
// times are those of the fastest op: on a host shared with other
// tenants, their load comes in phases of seconds to minutes that slow
// every op inside them by up to half, so the median and the mean measure
// the neighbours as much as the simulator. The simulation is
// deterministic and that load only ever adds time, so the fastest op is
// the closest to what an op costs with the core to itself.
func (r *run) endToEnd() map[string]float64 {
	ops := float64(len(r.ops))
	return map[string]float64{
		"op_ms_min":         ms(quantile(r.ops, 0)),
		"sim_mcycles_per_s": pick(r.rates, 1),
		"peak_heap_mb":      float64(r.peakHeap) / (1 << 20),
		"allocs_per_op":     float64(r.mem1.Mallocs-r.mem0.Mallocs) / ops,
		"setup_s":           quantile(r.setups, 0.50).Seconds(),
	}
}

// perLayer computes the per-layer metrics: the generic ones from the
// timed phase, the workload's own, and in a traced run the span self
// times and the CPU split by package.
func (r *run) perLayer() (map[string]float64, error) {
	ops := float64(len(r.ops))
	ns := float64(r.elapsed.Nanoseconds())
	m := map[string]float64{
		"sim.events_per_op":    float64(r.events) / ops,
		"sim.ns_per_event":     ratio(ns, float64(r.events)),
		"sim.kcycles_per_op":   float64(r.simCycles) / 1e3 / ops,
		"runtime.gc_cpu_pct":   100 * ratio(r.cpu1[0].Value.Float64()-r.cpu0[0].Value.Float64(), r.cpu1[1].Value.Float64()-r.cpu0[1].Value.Float64()),
		"runtime.gc_pause_pct": 100 * float64(r.mem1.PauseTotalNs-r.mem0.PauseTotalNs) / ns,
		"runtime.bytes_per_op": float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc) / ops,
	}
	for k, v := range r.layer {
		m[k] = v
	}
	if r.tr == nil {
		return m, nil
	}
	for _, name := range selfShareSpans {
		m[name+".self_pct"] = 100 * float64(r.tr.selfTime(name)) / ns
	}
	shares, err := cpuShares(r.profile.Name())
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		m["cpu_share."+k] = v
	}
	return m, nil
}

func readCPU() []metrics.Sample {
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// sampleHeap polls the heap's object bytes (HeapAlloc) every 2 ms until
// the returned function is called; that function waits for the sampler
// to exit and returns the peak it saw. runtime/metrics reads it without
// stopping the world, which ReadMemStats would do 500 times a second.
func sampleHeap() (stop func() uint64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	//lint:ignore goroutine-discipline host-side heap sampler: reads runtime metrics only, never touches a kernel, and is joined before the peak is read
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		return peak
	}
}

// quantile returns the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return time.Duration(pick(v, q))
}

// pick returns the nearest-rank q-quantile of v (0 when empty).
func pick(v []float64, q float64) float64 { return sched.Percentile(sorted(v), q) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (r *run) digestHex() string { return hex.EncodeToString(r.digest.Sum(nil)) }
