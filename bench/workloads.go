package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"rvcap"
	"rvcap/internal/cluster"
	"rvcap/internal/hist"
	"rvcap/internal/sched"
)

// workload is one benchmark scenario. run builds the simulated system
// from the seed (timed as set-up), runs ops until the time budget is
// spent, and checks every simulated output.
type workload struct {
	name string
	// minOps is the number of ops run whatever the budget, before
	// dividing by -scale (floor 10).
	minOps int
	run    func(r *run) error
}

var workloads = []workload{
	{"case-study", 30, caseStudy},
	{"hwicap-baseline", 10, hwicapBaseline},
	{"board-stream", streamJobs / windowJobs, boardStream},
	{"fleet-sweep", 10, fleetSweep},
}

// Sizes at -scale 1.
const (
	streamJobs  = 10_000 // jobs per board-stream stream
	windowJobs  = 1_000  // jobs per board-stream op
	fleetJobs   = 1_000  // jobs per fleet-sweep scenario
	fleetBoards = 4
)

// The paper's measurements the case study and the baseline are checked
// against (µs and MB/s; §IV-B and Table IV), and how far off they may be.
const (
	paperTd        = 18.0
	paperTr        = 1651.0
	paperHWICAPMBs = 8.23
	paperTolPct    = 3.0
)

var (
	filters = []string{rvcap.Gaussian, rvcap.Median, rvcap.Sobel}
	paperTc = map[string]float64{rvcap.Gaussian: 606, rvcap.Median: 598, rvcap.Sobel: 588}
)

// newSystem builds the paper's SoC with its three filter modules, each
// with a padded 650,892-byte partial bitstream staged in DDR.
func newSystem(r *run) (sys *rvcap.System, mods []*rvcap.Module, err error) {
	err = r.setup(func() error {
		if sys, err = rvcap.New(); err != nil {
			return err
		}
		mods = mods[:0]
		for _, f := range filters {
			id := r.tr.begin("bitstream.define_module")
			m, err := sys.DefineFilterModule(f)
			r.tr.end(id, 0, 0)
			if err != nil {
				return err
			}
			mods = append(mods, m)
		}
		return nil
	})
	return sys, mods, err
}

// caseStudy is the paper's Listing 1 loop. One op is one pass over the
// three filter modules in a seeded order, each reconfigured into the
// partition and then run on a seeded noisy 512x512 image. A pass, not a
// single module, is the op because a Median run costs about three times
// the others in host time: per-module ops would cluster, and their median
// would jump between clusters. Each output image must equal the software
// reference bit for bit, and T_d, T_r and T_c must stay within
// paperTolPct of the paper.
func caseStudy(r *run) error {
	sys, mods, err := newSystem(r)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	img, refs, err := filterInput(rng)
	if err != nil {
		return err
	}
	k := sys.HW().K

	type result struct {
		rec, flt rvcap.Timing
		out      *rvcap.Image
	}
	var td, tr, tc []float64 // µs, first minOps ops
	order := []int{0, 1, 2}
	results := make([]result, len(order))
	op := func() (time.Duration, uint64, uint64, error) {
		c0, e0 := k.Now(), k.Events()
		id := r.tr.begin("rvcap.System.Run")
		t0 := time.Now()
		err := sys.Run(func(s *rvcap.Session) error {
			for i, mi := range order {
				m, res := mods[mi], &results[i]
				id, c, e := r.tr.begin("driver.reconfigure"), k.Now(), k.Events()
				var err error
				res.rec, err = s.Reconfigure(m)
				r.tr.end(id, k.Events()-e, uint64(k.Now()-c))
				if err != nil {
					return err
				}
				if got := sys.ActiveModule(); got != m.Name {
					return fmt.Errorf("partition holds %q after reconfiguring %q", got, m.Name)
				}
				id, c, e = r.tr.begin("accel.filter"), k.Now(), k.Events()
				res.out, res.flt, err = s.FilterImage(img)
				r.tr.end(id, k.Events()-e, uint64(k.Now()-c))
				if err != nil {
					return err
				}
			}
			return nil
		})
		d := time.Since(t0)
		cycles, events := uint64(k.Now()-c0), k.Events()-e0
		r.tr.end(id, events, cycles)
		if err != nil {
			return d, cycles, events, err
		}
		id = r.tr.begin("bench.check")
		defer r.tr.end(id, 0, 0)
		for i, mi := range order {
			m, res := mods[mi], &results[i]
			if !bytes.Equal(res.out.Pix, refs[mi].Pix) {
				return d, cycles, events, fmt.Errorf("%s output differs from the software reference", m.Name)
			}
			for _, c := range []error{
				r.paperCheck("T_d", res.rec.DecisionMicros, paperTd),
				r.paperCheck("T_r", res.rec.ReconfigMicros, paperTr),
				r.paperCheck("T_c "+m.Name, res.flt.ComputeMicros, paperTc[m.Name]),
			} {
				if c != nil {
					return d, cycles, events, c
				}
			}
			if r.inPrefix() {
				td, tr, tc = append(td, res.rec.DecisionMicros), append(tr, res.rec.ReconfigMicros), append(tc, res.flt.ComputeMicros)
				fmt.Fprintf(r.digest, "%s %v %v %v %x\n", m.Name, res.rec.DecisionMicros,
					res.rec.ReconfigMicros, res.flt.ComputeMicros, sha256.Sum256(res.out.Pix))
			}
		}
		return d, cycles, events, nil
	}

	if _, _, _, err := op(); err != nil { // warm-up, untimed
		return err
	}
	if err := r.startTimed(); err != nil {
		return err
	}
	for r.more() {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		r.addOp(op())
	}
	if err := r.stopTimed(); err != nil {
		return err
	}

	tex := make([]float64, len(td))
	for i := range td {
		tex[i] = td[i] + tr[i] + tc[i]
	}
	r.layer["driver.td_cycles"] = meanCycles(td)
	r.layer["driver.tr_cycles"] = meanCycles(tr)
	r.layer["accel.tc_cycles"] = meanCycles(tc)
	simLatency(r, tex)
	return nil
}

// filterInput draws the case study's input image — the test pattern
// plus seeded noise — and computes every filter's software reference
// output for it.
func filterInput(rng *rand.Rand) (*rvcap.Image, []*rvcap.Image, error) {
	base := rvcap.TestPattern(512, 512)
	img := rvcap.NewImage(base.W, base.H)
	for p, v := range base.Pix {
		img.Pix[p] = uint8(min(max(int(v)+rng.Intn(33)-16, 0), 255))
	}
	refs := make([]*rvcap.Image, len(filters))
	for i, f := range filters {
		ref, err := rvcap.ApplyReference(f, img)
		if err != nil {
			return nil, nil, err
		}
		refs[i] = ref
	}
	return img, refs, nil
}

// hwicapBaseline is the paper's Listing 2: every op loads a seeded
// random module's padded bitstream through the AXI_HWICAP vendor core,
// one 32-bit MMIO store at a time (store loop unrolled 16x, as in the
// paper). The partition must hold the module afterwards, and the
// throughput must stay within paperTolPct of the paper's 8.23 MB/s.
func hwicapBaseline(r *run) error {
	sys, mods, err := newSystem(r)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	k := sys.HW().K

	var trs, mbps []float64
	op := func(m *rvcap.Module) (time.Duration, uint64, uint64, error) {
		var t rvcap.Timing
		c0, e0 := k.Now(), k.Events()
		id := r.tr.begin("rvcap.System.Run")
		t0 := time.Now()
		err := sys.Run(func(s *rvcap.Session) error {
			id := r.tr.begin("hwicap.reconfigure")
			var err error
			t, err = s.ReconfigureHWICAP(m, 16)
			r.tr.end(id, k.Events()-e0, uint64(k.Now()-c0))
			return err
		})
		d := time.Since(t0)
		cycles, events := uint64(k.Now()-c0), k.Events()-e0
		r.tr.end(id, events, cycles)
		if err != nil {
			return d, cycles, events, err
		}
		id = r.tr.begin("bench.check")
		defer r.tr.end(id, 0, 0)
		if got := sys.ActiveModule(); got != m.Name {
			return d, cycles, events, fmt.Errorf("partition holds %q after loading %q", got, m.Name)
		}
		if t.Bytes != m.BitstreamBytes() {
			return d, cycles, events, fmt.Errorf("%d bytes loaded, bitstream has %d", t.Bytes, m.BitstreamBytes())
		}
		if err := r.paperCheck("HWICAP MB/s", t.ThroughputMBs(), paperHWICAPMBs); err != nil {
			return d, cycles, events, err
		}
		if r.inPrefix() {
			trs, mbps = append(trs, t.ReconfigMicros), append(mbps, t.ThroughputMBs())
			fmt.Fprintf(r.digest, "%s %v %d\n", m.Name, t.ReconfigMicros, t.Bytes)
		}
		return d, cycles, events, nil
	}

	if _, _, _, err := op(mods[0]); err != nil { // warm-up, untimed
		return err
	}
	if err := r.startTimed(); err != nil {
		return err
	}
	for r.more() {
		r.addOp(op(mods[rng.Intn(len(mods))]))
	}
	if err := r.stopTimed(); err != nil {
		return err
	}

	r.layer["hwicap.mbps"] = mean(mbps)
	r.layer["hwicap.events_per_word"] = float64(r.events) / float64(len(r.ops)) / float64(mods[0].BitstreamBytes()/4)
	simLatency(r, trs)
	return nil
}

// boardStream plays fresh job streams through one board until the budget
// is spent; stream i has seed seed*1000+i and starts from a cold cache.
// Every windowJobs-th job handed to the board closes one op. Each
// stream's report must satisfy the scheduler's accounting identities.
func boardStream(r *run) error {
	jobs, window := streamJobs/r.scale, windowJobs/r.scale
	err := r.setup(func() error {
		_, err := runStream(r, r.seed*1000-1, 1, 1)
		return err
	})
	if err != nil {
		return err
	}
	if err := r.startTimed(); err != nil {
		return err
	}
	var build time.Duration
	var first *sched.Report
	for i := int64(0); r.more(); i++ {
		src, err := runStream(r, r.seed*1000+i, jobs, window)
		if src == nil {
			return err
		}
		if err == nil && first == nil {
			first = src.rep
			buf, jerr := json.Marshal(src.rep)
			if jerr != nil {
				return jerr
			}
			r.digest.Write(buf)
		}
		build += src.build
		if src.rep != nil {
			r.events += src.rep.KernelEvents
		}
		for w := range src.ops {
			r.addOp(src.ops[w], src.cycles[w], 0, err)
		}
		for w := len(src.ops); w < jobs/window; w++ { // windows an error cut short
			r.addOp(0, 0, 0, err)
		}
	}
	if err := r.stopTimed(); err != nil {
		return err
	}
	if first == nil {
		return fmt.Errorf("no stream completed")
	}
	r.layer["sched.board_build.pct"] = 100 * build.Seconds() / r.elapsed.Seconds()
	var t schedTotals
	t.add(first)
	t.setLayer(r)
	r.layer["sim.latency_kcycles_p50"] = first.P50Micros / 10
	r.layer["sim.latency_kcycles_p99"] = first.P99Micros / 10
	return nil
}

// runStream plays one jobs-long stream through a fresh board and checks
// its report: 2 fixed partitions and an 8-slot DDR bitstream cache under
// an open-loop Poisson stream at load 0.6 with module locality 0.45. It
// returns a nil source when the board or the stream cannot be built.
func runStream(r *run, seed int64, jobs, window int) (*windowSource, error) {
	stream, err := sched.Workload{Seed: seed, Jobs: jobs, Load: 0.6, RPs: 2, Locality: 0.45}.Stream()
	if err != nil {
		return nil, err
	}
	board, err := sched.NewBoard("B0", sched.Config{RPs: 2, CacheSlots: 8, Seed: seed})
	if err != nil {
		return nil, err
	}
	src := &windowSource{WorkloadStream: stream, window: window, tr: r.tr}
	id := r.tr.begin("sched.Board.RunStream")
	src.span = r.tr.begin("sched.board_build")
	src.start = time.Now()
	src.rep, err = board.RunStream(src)
	r.tr.end(id, 0, 0)
	if err != nil {
		return src, err
	}
	if src.calls != jobs+1 {
		return src, fmt.Errorf("board pulled %d jobs from a %d-job stream", src.calls-1, jobs)
	}
	return src, checkReport(src.rep, jobs)
}

// windowSource hands a board its job stream and cuts the run into ops:
// every window-th Next call closes one, timed in host time and measured
// in simulated time by the arrival cycles at its two edges. The embedded
// stream's Recycle takes completed jobs back, so the board keeps its
// bounded-memory path.
type windowSource struct {
	*sched.WorkloadStream
	window int
	calls  int

	start, edge time.Time
	build       time.Duration // RunStream start to the first Next: building the board
	arrival     uint64        // latest job's arrival cycle
	edgeArrival uint64
	ops         []time.Duration
	cycles      []uint64
	rep         *sched.Report

	tr   *tracer
	span int // the open board-build or window span
}

// Next is called from inside the simulation, once per job and once more
// at the end of the stream.
func (s *windowSource) Next() *sched.Job {
	var t0 time.Time
	if s.tr != nil {
		t0 = time.Now()
	}
	j := s.WorkloadStream.Next()
	if j != nil {
		s.arrival = uint64(j.Arrival)
	}
	if s.tr != nil {
		s.tr.extra["sched.source_next"] += time.Since(t0)
	}
	if s.calls%s.window == 0 {
		now := time.Now()
		if s.calls == 0 {
			s.build = now.Sub(s.start)
		} else {
			s.ops = append(s.ops, now.Sub(s.edge))
			s.cycles = append(s.cycles, s.arrival-s.edgeArrival)
		}
		s.tr.end(s.span, 0, s.arrival-s.edgeArrival)
		if j != nil {
			s.span = s.tr.begin("sched.window")
		}
		s.edge, s.edgeArrival = now, s.arrival
	}
	s.calls++
	return j
}

// checkReport checks a board report's accounting identities: every
// module load is a miss of configuration reuse or a failed attempt, and
// the latency histogram holds exactly one sample per job.
func checkReport(rep *sched.Report, jobs int) error {
	if rep.Jobs != jobs {
		return fmt.Errorf("board %s reports %d jobs, was given %d", rep.Board, rep.Jobs, jobs)
	}
	if want := rep.Jobs - rep.ResidentHits + rep.FailedLoads; rep.Reconfigs != want {
		return fmt.Errorf("board %s: %d reconfigurations, want jobs - resident hits + failed loads = %d", rep.Board, rep.Reconfigs, want)
	}
	if rep.Latency == nil || rep.Latency.N != uint64(jobs) {
		return fmt.Errorf("board %s: latency histogram does not hold %d samples", rep.Board, jobs)
	}
	var n uint64
	for _, b := range rep.Latency.Buckets {
		n += b.Count
	}
	if n != rep.Latency.N {
		return fmt.Errorf("board %s: latency buckets hold %d samples, histogram says %d", rep.Board, n, rep.Latency.N)
	}
	return nil
}

// fleetConfig is one fleet-sweep scenario: 4 boards of 3 amorphous
// region slots with affinity scheduling, 3 tenants at load 0.7 and
// module locality 0.2, routed least-loaded.
func fleetConfig(seed int64, jobs, workers int) cluster.Config {
	return cluster.Config{
		Seed: seed, Boards: fleetBoards, Policy: cluster.LeastLoaded, Tenants: 3,
		Jobs: jobs, Load: 0.7, Locality: 0.2, Workers: workers,
		Board: sched.Config{RPs: 3, Amorphous: true, Policy: sched.Affinity},
	}
}

// fleetWorkers is the host worker count fleet-sweep runs boards on.
const fleetWorkers = 1

// fleetSweep runs fleet scenarios with seeds seed*1000+i until the
// budget is spent. Every job must be routed exactly once, every board
// report must satisfy the accounting identities, and the board latency
// histograms merged here must give the fleet's own quantiles.
func fleetSweep(r *run) error {
	jobs := fleetJobs / r.scale
	err := r.setup(func() error {
		res, err := cluster.Run(fleetConfig(r.seed*1000-1, 3, fleetWorkers))
		if err == nil {
			err = checkFleet(res, 3)
		}
		return err
	})
	if err != nil {
		return err
	}
	if err := r.startTimed(); err != nil {
		return err
	}
	merged := hist.New()
	var (
		t                         schedTotals
		moves, scenarios          int
		imbalance, eventsOverMean float64
	)
	for i := int64(0); r.more(); i++ {
		id := r.tr.begin("cluster.Run")
		t0 := time.Now()
		res, err := cluster.Run(fleetConfig(r.seed*1000+i, jobs, fleetWorkers))
		d := time.Since(t0)
		if err != nil {
			r.tr.end(id, 0, 0)
			r.addOp(d, 0, 0, err)
			continue
		}
		var cycles uint64
		for _, b := range res.PerBoard {
			cycles += uint64(math.Round(b.MakespanMicros * 100))
		}
		r.tr.end(id, res.KernelEvents, cycles)
		cid := r.tr.begin("bench.check")
		err = checkFleet(res, jobs)
		r.tr.end(cid, 0, 0)
		if err == nil && r.inPrefix() {
			buf, jerr := json.Marshal(res)
			if jerr != nil {
				return jerr
			}
			r.digest.Write(buf)
			merged.MergeSnapshot(res.Latency)
			var maxRouted, maxEvents int
			var sumEvents uint64
			for _, b := range res.PerBoard {
				t.add(b.Report)
				maxRouted = max(maxRouted, b.Routed)
				maxEvents = max(maxEvents, int(b.KernelEvents))
				sumEvents += b.KernelEvents
			}
			moves += res.CrossBoardMoves
			scenarios++
			imbalance += float64(maxRouted) / (float64(jobs) / fleetBoards)
			eventsOverMean += ratio(float64(maxEvents), float64(sumEvents)/fleetBoards)
		}
		r.addOp(d, cycles, res.KernelEvents, err)
	}
	if err := r.stopTimed(); err != nil {
		return err
	}
	t.setLayer(r)
	r.layer["cluster.cross_board_moves_per_job"] = ratio(float64(moves), float64(t.jobs))
	r.layer["cluster.board_imbalance"] = ratio(imbalance, float64(scenarios))
	r.layer["cluster.board_events_max_over_mean"] = ratio(eventsOverMean, float64(scenarios))
	r.layer["sim.latency_kcycles_p50"] = float64(merged.Quantile(0.50)) / 1e3
	r.layer["sim.latency_kcycles_p99"] = float64(merged.Quantile(0.99)) / 1e3
	if r.traced {
		return fleetLayers(r, jobs)
	}
	return nil
}

// checkFleet checks that every job was routed once, that every board's
// report is consistent, and that merging the board histograms gives the
// fleet's job count and quantiles.
func checkFleet(res *cluster.Result, jobs int) error {
	if res.Jobs != jobs || len(res.PerBoard) != fleetBoards {
		return fmt.Errorf("fleet ran %d jobs on %d boards, want %d on %d", res.Jobs, len(res.PerBoard), jobs, fleetBoards)
	}
	merged := hist.New()
	routed := 0
	for _, b := range res.PerBoard {
		routed += b.Routed
		if err := checkReport(b.Report, b.Routed); err != nil {
			return err
		}
		merged.MergeSnapshot(b.Latency)
	}
	if routed != jobs || merged.N() != uint64(jobs) {
		return fmt.Errorf("%d jobs routed and %d merged latency samples, want %d", routed, merged.N(), jobs)
	}
	if p := float64(merged.Quantile(0.99)) / 100; p != res.P99Micros {
		return fmt.Errorf("merged board histograms give p99 %v µs, fleet reports %v", p, res.P99Micros)
	}
	return nil
}

// fleetLayers measures, in a traced run, what a fleet scenario spends
// outside the boards' simulations: generating and routing its workload,
// building each board, and how much running boards on parallel host
// workers saves.
func fleetLayers(r *run, jobs int) error {
	opTime := quantile(r.ops, 0.5).Seconds()
	cfg := fleetConfig(r.seed*1000, jobs, fleetWorkers)
	var gen, build []time.Duration
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		id := r.tr.begin("cluster.FleetWorkload.Generate")
		_, err := cluster.FleetWorkload{
			Seed: cfg.Seed, Tenants: cfg.Tenants, Jobs: cfg.Jobs, Load: cfg.Load,
			Locality: cfg.Locality, Boards: cfg.Boards, BoardRPs: cfg.Board.RPs,
		}.Generate()
		r.tr.end(id, 0, 0)
		if err != nil {
			return err
		}
		gen = append(gen, time.Since(t0))

		one, err := sched.Workload{Seed: cfg.Seed, Jobs: 1, Load: cfg.Load, RPs: cfg.Board.RPs}.Generate()
		if err != nil {
			return err
		}
		board, err := sched.NewBoard("B0", cfg.Board)
		if err != nil {
			return err
		}
		t0 = time.Now()
		id = r.tr.begin("sched.board_build")
		_, err = board.Run(one)
		r.tr.end(id, 0, 0)
		if err != nil {
			return err
		}
		build = append(build, time.Since(t0))
	}
	r.layer["cluster.generate.pct"] = 100 * quantile(gen, 0.5).Seconds() / opTime
	r.layer["sched.board_build.pct"] = 100 * fleetBoards * quantile(build, 0.5).Seconds() / opTime

	wall := func(workers int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < r.minOps; i++ {
			if _, err := cluster.Run(fleetConfig(r.seed*1000+int64(i), jobs, workers)); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	serial, err := wall(1)
	if err != nil {
		return err
	}
	workers := min(runtime.NumCPU(), 2)
	prev := runtime.GOMAXPROCS(workers)
	parallel, err := wall(workers)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	r.layer["runner.speedup"] = serial.Seconds() / parallel.Seconds()
	return nil
}

// schedTotals sums board reports into the sched and place layer values.
type schedTotals struct {
	jobs, reconfigs, resident, hits, misses, prefetches             int
	placements, failedPlacements, defrags, relocations, framesMoved int
	busy, reconfig, util, frag                                      float64
	rps, boards                                                     int
	events                                                          uint64
}

func (t *schedTotals) add(rep *sched.Report) {
	t.jobs += rep.Jobs
	t.reconfigs += rep.Reconfigs
	t.resident += rep.ResidentHits
	t.hits += rep.CacheHits
	t.misses += rep.CacheMisses
	t.prefetches += rep.Prefetches
	t.placements += rep.Placements
	t.failedPlacements += rep.FailedPlacements
	t.defrags += rep.Defrags
	t.relocations += rep.Relocations
	t.framesMoved += rep.FramesMoved
	t.frag += rep.MeanFragPct
	t.events += rep.KernelEvents
	t.boards++
	for _, rp := range rep.PerRP {
		t.busy += rp.BusyMicros
		t.reconfig += rp.ReconfigMicros
		t.util += rp.Utilization
		t.rps++
	}
}

func (t *schedTotals) setLayer(r *run) {
	jobs := float64(t.jobs)
	for name, v := range map[string]float64{
		"sched.events_per_job":          ratio(float64(t.events), jobs),
		"sched.reconfigs_per_job":       ratio(float64(t.reconfigs), jobs),
		"sched.resident_hit_ratio":      ratio(float64(t.resident), jobs),
		"sched.cache_hit_rate":          ratio(float64(t.hits), float64(t.hits+t.misses)),
		"sched.prefetches_per_job":      ratio(float64(t.prefetches), jobs),
		"sched.reconfig_overhead_ratio": ratio(t.reconfig, t.busy+t.reconfig),
		"sched.rp_utilization":          ratio(t.util, float64(t.rps)),
		"place.placements_per_job":      ratio(float64(t.placements), jobs),
		"place.failed_placement_ratio":  ratio(float64(t.failedPlacements), float64(t.placements)),
		"place.defrags_per_job":         ratio(float64(t.defrags), jobs),
		"place.relocations_per_job":     ratio(float64(t.relocations), jobs),
		"place.frames_moved_per_job":    ratio(float64(t.framesMoved), jobs),
		"place.mean_frag_pct":           ratio(t.frag, float64(t.boards)),
	} {
		r.layer[name] = v
	}
}

// simLatency sets the simulated latency quantiles from per-op µs values.
func simLatency(r *run, us []float64) {
	if len(us) == 0 {
		return
	}
	r.layer["sim.latency_kcycles_p50"] = pick(us, 0.50) / 10
	r.layer["sim.latency_kcycles_p99"] = pick(us, 0.99) / 10
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// meanCycles converts a mean of µs values to 100 MHz cycles.
func meanCycles(us []float64) float64 { return mean(us) * 100 }
