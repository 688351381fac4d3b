// Package sched is a deterministic DPR-as-a-service runtime: many
// competing filter jobs time-share a few reconfigurable partitions, the
// runtime problem of time-shared DPR systems (Nguyen & Hoe, "Time-Shared
// Execution of Realtime Computer Vision Pipelines by Dynamic Partial
// Reconfiguration"). It runs entirely inside the simulation on one
// sim.Kernel: arrivals, the SD staging engine, the partition servers and
// the scheduling CPU are kernel-confined processes, so a scenario is a
// pure function of its Config — byte-identical on every run and host.
//
// The moving parts:
//
//   - a seeded synthetic workload (open-loop Poisson-like arrivals of
//     Sobel/Median/Gaussian jobs with temporal module locality),
//   - N reconfigurable partitions placed on the fabric, each loaded
//     through the existing RV-CAP driver path (decouple bit, stream
//     switch to ICAP, DMA transfer, PLIC completion interrupt),
//   - pluggable policies: FCFS, module-affinity (configuration reuse —
//     skip reconfiguration when the module is already resident) and
//     shortest-reconfig-first,
//   - a DDR-resident bitstream cache with prefetch in front of the slow
//     SD staging path, and
//   - a service-level metrics layer (p50/p95/p99 latency, per-RP
//     utilization, cache hit rate, reconfiguration-overhead ratio).
//
// Scheduling model: one hart runs the scheduler, so configuration
// switches serialise on the CPU+DMA (there is one ICAP), while compute
// proceeds concurrently on the partitions — exactly the asymmetry that
// makes configuration reuse valuable.
package sched

import (
	"errors"
	"fmt"

	"rvcap/internal/accel"
	"rvcap/internal/bitstream"
	"rvcap/internal/core"
	"rvcap/internal/driver"
	"rvcap/internal/fault"
	"rvcap/internal/fpga"
	"rvcap/internal/hist"
	"rvcap/internal/place"
	"rvcap/internal/sim"
	"rvcap/internal/soc"
)

// Config fully determines one scenario.
type Config struct {
	// Seed drives the workload generator.
	Seed int64
	// Policy selects the dispatch order (FCFS when zero).
	Policy Policy
	// RPs is the number of reconfigurable partitions (default 2,
	// maximum len(rpColumnPairs)).
	RPs int
	// Jobs is the workload length (default 24).
	Jobs int
	// Load is the offered compute load relative to aggregate partition
	// capacity (default 0.7).
	Load float64
	// Locality is the probability a job repeats the previous module
	// (default 0.45).
	Locality float64
	// CacheSlots is the DDR bitstream cache capacity in slots (default
	// 4, minimum 2).
	CacheSlots int
	// ReorderWindow bounds how deep Affinity/ShortestReconfig look into
	// the queue (default 8), so no job is starved indefinitely.
	ReorderWindow int
	// NoPrefetch disables staging a job's bitstream at arrival time.
	NoPrefetch bool

	// Amorphous switches the runtime from fixed pre-cut partitions to
	// frame-granular placement: RPs becomes the number of concurrent
	// region slots, each module declares its own footprint, one staged
	// prototype bitstream per module is relocated to whichever region
	// the allocator assigns, and the load path defragments — then
	// reclaims idle regions — before waiting on a busy slot.
	Amorphous bool
	// PlacePolicy selects the placement policy in amorphous mode
	// (first-fit when zero).
	PlacePolicy place.Policy

	// FaultRate, when nonzero, injects faults across the datapath (SD
	// staging errors, DMA transfer errors and stalls, bitstream
	// corruption, stuck-synced ICAP) at this per-event probability.
	// Must be in [0, 1): an always-failing site can never heal.
	FaultRate float64
	// FaultSeed keys the fault plan (default: Seed), so the fault
	// history can be varied independently of the workload.
	FaultSeed int64
	// MaxRetries bounds how often a failed module load is retried
	// (recover, re-stage, reload) before the partition is quarantined
	// (default 2).
	MaxRetries int
	// KillRP, when nonzero, hard-fails partition KillRP-1: every load
	// after its first KillAfterLoads successful ones wedges the ICAP,
	// so retries exhaust and the partition is quarantined mid-run. The
	// runtime must redistribute its queue to the survivors.
	KillRP int
	// KillAfterLoads is how many loads the killed partition completes
	// before dying (default 1).
	KillAfterLoads int

	// onPrefetch, when set, observes every arrival-time prefetch with
	// the predicted partition and the quarantine state at that instant.
	// Test-only instrumentation; external packages cannot set it.
	onPrefetch func(rp int, quarantined []bool)
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.RPs == 0 {
		c.RPs = 2
	}
	if c.Jobs == 0 {
		c.Jobs = 24
	}
	if c.Load == 0 {
		c.Load = 0.7
	}
	if c.Locality == 0 {
		c.Locality = 0.45
	}
	if c.CacheSlots == 0 {
		c.CacheSlots = 4
	}
	if c.ReorderWindow == 0 {
		c.ReorderWindow = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FaultSeed == 0 {
		c.FaultSeed = c.Seed
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.KillAfterLoads == 0 {
		c.KillAfterLoads = 1
	}
	return c
}

// DefaultFaultScenario is the canonical self-healing demo: three
// partitions under near-saturation load, a ~8% per-event fault rate
// across the datapath, and partition SRP1 hard-failing after its first
// load. The runtime must quarantine SRP1, redistribute its queue and
// still complete every job — examples/fault-tolerant runs exactly this
// Config, and the acceptance tests pin its counters.
func DefaultFaultScenario() Config {
	return Config{
		Seed:      11,
		Policy:    Affinity,
		RPs:       3,
		Jobs:      36,
		Load:      0.8,
		FaultRate: 0.08,
		KillRP:    2,
	}
}

// rpColumnPairs are the CLB column pairs (avoiding BRAM/DSP columns, so
// every partition has an identical frame count and bitstream size) used
// to place scheduler partitions on row 0 of the Kintex-7 geometry. The
// paper's default RP sits on rows 2-3 and is skipped here; the sched
// partitions are deliberately small so configuration switches are the
// same order of magnitude as compute.
var rpColumnPairs = [][2]int{
	{0, 1}, {2, 3}, {4, 5}, {7, 8}, {9, 10}, {11, 12}, {14, 15}, {16, 17},
}

// padFactorNum/Den give each module a distinct bitstream size (numerator
// over denominator applied to the natural span size), so
// shortest-reconfig-first has real cost differences to exploit.
func padFactor(module string) (num, den int) {
	switch module {
	case accel.Sobel:
		return 1, 1
	case accel.Median:
		return 5, 4
	case accel.Gaussian:
		return 3, 2
	}
	return 1, 1
}

// rpState is the runtime view of one partition — or, in amorphous
// mode, of one region slot, whose partition is created and destroyed at
// runtime as regions are placed and reclaimed.
type rpState struct {
	name        string
	part        *fpga.Partition
	start       *sim.Signal
	busy        bool
	quarantined bool
	job         *Job

	// region is the slot's current placement (amorphous mode only);
	// residentID is the intern ID of the module last successfully
	// loaded into the slot (-1 when none) — the policy scans and the
	// defragmenter's reload both key on it, so the hot paths compare
	// ints, never strings.
	region     *place.Region
	residentID int

	jobsServed int
	// reconfigs counts every module load attempt actually driven through
	// the ICAP on this partition — including failed attempts that were
	// retried and loads replayed after a quarantine. loadsOK counts only
	// the attempts that brought the module up (it feeds the KillRP
	// trigger, which is defined in successful loads).
	reconfigs      int
	loadsOK        int
	busyCycles     sim.Time
	reconfigCycles sim.Time
}

// Runtime is one scenario in flight on one Board. Construct with
// Board.Run (or the package-level Run convenience wrapper).
type Runtime struct {
	board *Board
	cfg   Config
	s     *soc.SoC
	d     *driver.RVCAP

	// src feeds jobs in arrival order; totalJobs is the stream length,
	// known up front. recycle, when non-nil, returns completed job
	// records to the source's pool (the streaming path) — the
	// materialised Board.Run path leaves it nil so callers keep their
	// job structs.
	src       JobSource
	totalJobs int
	recycle   func(*Job)

	queue  []*Job
	rps    []*rpState
	images map[imgKey]*bitstream.Image
	cache  *bitCache

	wake *sim.Signal // pulses on arrival / completion / fetch-done
	stop *sim.Signal // latched end-of-scenario

	// Latency accounting: every completion records its
	// queue-to-completion cycles into lat (O(1), bounded memory), so a
	// report costs O(buckets) however long the run was. lastCompletion
	// tracks the makespan incrementally; residentHits counts
	// configuration-reuse dispatches.
	lat            *hist.Hist
	lastCompletion sim.Time
	residentHits   int

	// reconfigMod is the reused driver record of the in-flight load
	// (one load at a time: the dispatcher serialises on the hart).
	reconfigMod driver.ReconfigModule

	// Amorphous-mode state: the frame-granular allocator, the prototype
	// anchor of each module's compiled image (indexed by module intern
	// ID), and the placement gauges — running sums, so the gauges are
	// O(1) memory however many placements the run performs.
	alloc       *place.Allocator
	protoAnchor [][2]int
	placeSeq    int
	placeWaits  int
	fragSum     float64
	fragN       int
	defragPre   float64 // Σ external-frag % before effective defrags
	defragPost  float64 // Σ external-frag % after effective defrags
	defragN     int

	// plan, when set, schedules the injected faults; killArmed is true
	// while the dispatcher is loading the hard-failed partition.
	plan      *fault.Plan
	killArmed bool

	completed   int
	failedLoads int
	loadRetries int
	quarantines int

	// kernelEvents is the kernel's fired-event total, captured after the
	// scenario completes (fleet throughput is reported in events/sec).
	kernelEvents uint64
}

// Run generates cfg's seeded workload and plays it on a fresh Board.
// Everything — including the DMA transfers of every module load —
// happens on a single fresh sim.Kernel, so equal Configs give
// byte-identical Reports.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	b, err := NewBoard("board", cfg)
	if err != nil {
		return nil, err
	}
	jobs, err := Workload{
		Seed: cfg.Seed, Jobs: cfg.Jobs, Load: cfg.Load,
		RPs: cfg.RPs, Locality: cfg.Locality,
	}.Generate()
	if err != nil {
		return nil, err
	}
	return b.Run(jobs)
}

// runArrivals releases jobs into the queue at their generated arrival
// cycles and, unless disabled, prefetches each job's bitstream for the
// partition it will most plausibly land on. Jobs are pulled from the
// source one at a time, so a streaming source keeps only the in-flight
// jobs alive.
//
//lint:hot
func (r *Runtime) runArrivals(p *sim.Proc) {
	for {
		job := r.src.Next()
		if job == nil {
			return
		}
		if job.Arrival > p.Now() {
			p.Sleep(job.Arrival - p.Now())
		}
		r.queue = append(r.queue, job)
		if !r.cfg.NoPrefetch {
			rp := r.predictRP(job)
			if r.cfg.onPrefetch != nil {
				q := make([]bool, len(r.rps))
				for i, s := range r.rps {
					q[i] = s.quarantined
				}
				r.cfg.onPrefetch(rp, q)
			}
			r.cache.request(r.imageKey(rp, job.ModuleID), true)
		}
		r.wake.Fire()
	}
}

// predictRP guesses the partition an arriving job will be dispatched
// to: one where its module is already resident, else a deterministic
// spread by job ID over the partitions that can still serve jobs. A
// misprediction only costs a later cache miss — but the spread must
// skip quarantined partitions, or every post-quarantine prefetch keyed
// to the dead partition burns a cache slot on an image no dispatcher
// can ever use and forces evictions of live ones.
func (r *Runtime) predictRP(job *Job) int {
	alive := 0
	for i, rp := range r.rps {
		if !rp.quarantined && rp.residentID == job.ModuleID {
			return i
		}
		if !rp.quarantined {
			alive++
		}
	}
	if alive == 0 {
		// Nothing can serve the job anyway; the dispatcher will fail the
		// scenario. Keep the legacy spread so the prefetch stays defined.
		return job.ID % len(r.rps)
	}
	n := job.ID % alive
	for i, rp := range r.rps {
		if rp.quarantined {
			continue
		}
		if n == 0 {
			return i
		}
		n--
	}
	return job.ID % len(r.rps) // unreachable
}

// runRP is one partition server: it idles until the dispatcher hands it
// a job, charges the compute time, and reports completion. Completion is
// where the run's metrics are folded in — latency into the histogram,
// makespan and reuse counters incrementally — so the report never needs
// the job records again and a streaming source can recycle them.
//
//lint:hot
func (r *Runtime) runRP(p *sim.Proc, pi int) {
	rp := r.rps[pi]
	for {
		if rp.job == nil {
			if p.WaitAny(rp.start, r.stop) == 1 {
				return
			}
			continue
		}
		job := rp.job
		p.Sleep(job.Service)
		job.Completion = p.Now()
		rp.busyCycles += job.Service
		rp.job = nil
		rp.busy = false
		r.completed++
		r.lat.Record(uint64(job.Completion - job.Arrival))
		if job.Completion > r.lastCompletion {
			r.lastCompletion = job.Completion
		}
		if !job.Reconfigured {
			r.residentHits++
		}
		if r.recycle != nil {
			r.recycle(job)
		}
		r.wake.Fire()
	}
}

// runDispatcher is the scheduling CPU: the only process that touches
// the hart, the RV-CAP driver and the DMA. It repeatedly applies the
// policy, performs any configuration switch the pick requires, and
// hands the job to its partition server.
func (r *Runtime) runDispatcher(p *sim.Proc) error {
	if err := r.d.SetupPLIC(p); err != nil {
		return err
	}
	for r.completed < r.totalJobs {
		qi, pi := r.pick()
		if qi < 0 {
			p.Wait(r.wake)
			continue
		}
		if err := r.dispatch(p, qi, pi); err != nil {
			return err
		}
	}
	r.stop.Fire()
	return nil
}

// dispatch runs one pick: stage the bitstream if the module is not
// resident, reconfigure through the RV-CAP driver, and start the job.
// The partition is reserved up front so the policy cannot double-book
// it while the dispatcher blocks on staging or the DMA interrupt. A
// load whose retries exhaust quarantines the partition and puts the
// job back at the head of the queue for the surviving partitions.
func (r *Runtime) dispatch(p *sim.Proc, qi, pi int) error {
	job := r.queue[qi]
	r.queue = append(r.queue[:qi], r.queue[qi+1:]...)
	rp := r.rps[pi]
	rp.busy = true
	job.Dispatch = p.Now()
	job.RP = pi

	if rp.residentID != job.ModuleID {
		key := r.imageKey(pi, job.ModuleID)
		t0 := p.Now()
		if r.cfg.Amorphous {
			ok, err := r.ensurePlaced(p, rp, pi, job)
			if err != nil {
				return err
			}
			if !ok {
				return nil // window full: job requeued, waiting for a drain
			}
		}
		err := r.loadModule(p, rp, pi, key)
		if isLoadFault(err) {
			return r.quarantine(p, pi, job)
		}
		if err != nil {
			return err
		}
		rp.reconfigCycles += p.Now() - t0
		rp.loadsOK++
		rp.residentID = job.ModuleID
		job.Reconfigured = true
	}

	rp.job = job
	rp.jobsServed++
	rp.start.Fire()
	return nil
}

// loadRetryBackoff is the delay before the first load retry; it
// doubles per attempt.
const loadRetryBackoff = sim.Time(1000)

// errLoadFaulty marks a load that failed for a datapath reason — the
// module did not come up, or the configuration engine latched an error
// — as opposed to an infrastructure failure of the simulation itself.
var errLoadFaulty = errors.New("sched: module load failed")

// isLoadFault reports whether err is a recoverable datapath fault
// (retry, then quarantine) rather than a hard runtime error.
func isLoadFault(err error) bool {
	return errors.Is(err, errLoadFaulty) || errors.Is(err, driver.ErrDMAFault)
}

// loadModule loads key's module onto rp, healing datapath faults:
// every failed attempt recovers the ICAP, drops the possibly corrupt
// DDR copy and retries with backoff; after MaxRetries the fault is
// surfaced to the caller, which quarantines the partition.
func (r *Runtime) loadModule(p *sim.Proc, rp *rpState, pi int, key imgKey) error {
	backoff := loadRetryBackoff
	var last error
	for attempt := 0; attempt <= r.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			r.loadRetries++
			p.Sleep(backoff)
			backoff *= 2
		}
		e, err := r.cache.ensure(p, key)
		if err != nil {
			return err
		}
		// Every attempt from here on drives the full driver sequence
		// through the ICAP, so it is a module load whether or not the
		// module comes up — count it on the partition. The KillRP
		// trigger is defined in *successful* loads (loadsOK), so a dying
		// partition's retried attempts do not re-arm it differently.
		rp.reconfigs++
		r.killArmed = r.cfg.KillRP == pi+1 && rp.loadsOK >= r.cfg.KillAfterLoads
		err = r.reconfigure(p, rp, key, e)
		r.killArmed = false
		r.cache.unpin(e)
		if err == nil {
			return nil
		}
		if !isLoadFault(err) {
			return err
		}
		r.failedLoads++
		last = err
		// Heal the datapath: reset the DMA channel, drain, abort the
		// packet engine, and drop the staged copy — it may be the
		// corrupted artifact, and a fresh staging draws a fresh fault
		// decision.
		if rerr := r.d.RecoverICAP(p); rerr != nil {
			return rerr
		}
		r.cache.invalidate(key)
	}
	return last
}

// quarantine retires partition pi after a load whose retries
// exhausted: the partition is excluded from every future pick, its job
// returns to the head of the queue for the surviving partitions, and
// the datapath is restored to acceleration mode. Losing the last
// partition is fatal — the scenario cannot complete.
func (r *Runtime) quarantine(p *sim.Proc, pi int, job *Job) error {
	rp := r.rps[pi]
	rp.quarantined = true
	rp.busy = false
	r.quarantines++
	r.queue = append([]*Job{job}, r.queue...)
	// The failed load may have left the partition decoupled and the
	// stream switch steered to the ICAP; restore acceleration mode.
	if err := r.s.Hart.Store32(p, soc.RVCAPBase+core.RegControl, 0); err != nil {
		return err
	}
	if err := r.d.SelectICAP(p, false); err != nil {
		return err
	}
	for _, other := range r.rps {
		if !other.quarantined {
			r.wake.Fire()
			return nil
		}
	}
	return fmt.Errorf("sched: all %d partitions quarantined with %d jobs unfinished",
		len(r.rps), r.totalJobs-r.completed)
}

// reconfigure loads key's module into rp through the paper's Listing 1
// sequence, addressed at the partition's decouple bit: isolate the RP,
// steer the stream switch to the ICAP, launch the non-blocking DMA read
// of the staged bitstream, ride the PLIC completion interrupt, then
// recouple.
func (r *Runtime) reconfigure(p *sim.Proc, rp *rpState, key imgKey, e *cacheEntry) error {
	h := r.s.Hart
	bit := r.s.DecoupleBit(rp.part)
	if bit < 0 {
		return fmt.Errorf("sched: partition %s has no decouple bit", rp.part.Name)
	}
	if err := h.Store32(p, soc.RVCAPBase+core.RegControl, 1<<uint(bit)); err != nil {
		return err
	}
	if err := r.d.SelectICAP(p, true); err != nil {
		return err
	}
	addr, size := e.addr, uint32(e.bytes)
	if r.cfg.Amorphous {
		var err error
		addr, size, err = r.stageRelocated(p, rp, key, e)
		if err != nil {
			return err
		}
	}
	// One load is in flight at a time (the dispatcher serialises on the
	// hart) and ReconfigureRP consumes the descriptor synchronously, so
	// the runtime reuses a single record instead of allocating per load.
	m := &r.reconfigMod
	m.BitstreamName = Modules.BinName(key.mod)
	m.Function = Modules.Name(key.mod)
	m.StartAddress = addr
	m.PbitSize = size
	if err := r.d.ReconfigureRP(p, m, driver.NonBlocking); err != nil {
		return err
	}
	if err := r.d.WaitReconfigDone(p); err != nil {
		return err
	}
	if err := r.d.SelectICAP(p, false); err != nil {
		return err
	}
	if err := h.Store32(p, soc.RVCAPBase+core.RegControl, 0); err != nil {
		return err
	}
	if err := r.s.ICAP.Err(); err != nil {
		return fmt.Errorf("%w: %s into %s: %v", errLoadFaulty, key.moduleName(), rp.part.Name, err)
	}
	if rp.part.Active() != key.moduleName() {
		return fmt.Errorf("%w: %s not active on %s after load", errLoadFaulty, key.moduleName(), rp.part.Name)
	}
	return nil
}
