package accel

import (
	"encoding/binary"
	"fmt"

	"rvcap/internal/axi"
	"rvcap/internal/sim"
)

// Engine is the hardware model of one HLS-generated filter module: a
// streaming core with 64-bit AXI-Stream input and output (8 pixels per
// beat), internal line buffers for the 3x3 window, and a calibrated
// beat-level initiation interval.
//
// Timing: the paper's cores are "developed using Xilinx Vivado
// high-level synthesis with 64-bit AXI-stream interfaces ... operating
// at a clock frequency of 100 MHz" (§IV-D) and measure T_c of 588-606 µs
// on 512x512 images — about 1.8 cycles per 8-pixel beat. The per-filter
// II below is calibrated to those measurements (the window arithmetic is
// resource-shared across the 8 lanes, so a beat does not complete in a
// single cycle; Gaussian's wider accumulation tree is slowest, Sobel's
// DSP-mapped gradients fastest).
type Engine struct {
	name string
	w, h int

	in  *axi.Stream
	out *axi.Stream

	// iiNum/iiDen: cycles per input beat as a rational (credit-based
	// pacing keeps long-run average exact without fractional time).
	iiNum, iiDen int
	// fillLatency is the pipeline depth charged once before the first
	// output beat.
	fillLatency sim.Time

	beatsIn  uint64
	beatsOut uint64
}

// engineSpec holds the calibrated per-filter parameters.
type engineSpec struct {
	iiNum, iiDen int
	fill         sim.Time
}

// calibrated: beat-level II against the paper's Table IV compute times
// (Gaussian 606 µs, Median 598 µs, Sobel 588 µs on 512x512).
var specs = map[string]engineSpec{
	Gaussian: {iiNum: 928, iiDen: 512, fill: 160},
	Median:   {iiNum: 915, iiDen: 512, fill: 140},
	Sobel:    {iiNum: 899, iiDen: 512, fill: 120},
}

// NewEngine instantiates the named filter for w x h images and starts
// its streaming process. Input and output FIFOs are small skid buffers,
// as in the HLS cores.
func NewEngine(k *sim.Kernel, name string, w, h int) (*Engine, error) {
	spec, ok := specs[name]
	if !ok {
		return nil, errUnknownFilter(name)
	}
	if w%8 != 0 || w <= 0 || h <= 0 {
		return nil, fmt.Errorf("accel: width %d not a positive multiple of 8", w)
	}
	e := &Engine{
		name:        name,
		w:           w,
		h:           h,
		in:          axi.NewStream(k, name+".in", 32),
		out:         axi.NewStream(k, name+".out", 32),
		iiNum:       spec.iiNum,
		iiDen:       spec.iiDen,
		fillLatency: spec.fill,
	}
	e.start(k)
	return e, nil
}

// Name returns the module name.
func (e *Engine) Name() string { return e.name }

// In returns the module's input stream (wired to the RV-CAP decoupler).
func (e *Engine) In() *axi.Stream { return e.in }

// Out returns the module's output stream (wired to the DMA S2MM).
func (e *Engine) Out() *axi.Stream { return e.out }

// BeatsIn and BeatsOut return transfer counters.
func (e *Engine) BeatsIn() uint64  { return e.beatsIn }
func (e *Engine) BeatsOut() uint64 { return e.beatsOut }

// outRow is one computed row queued for the write-back side.
type outRow struct {
	pix  []byte
	last bool
}

// start launches the engine's two continuation state machines: the
// input/compute side consumes one image per pass, handing each output
// row to the concurrent write-back side as soon as its lower neighbour
// row has arrived (dataflow between the window pipeline and the output
// FIFO stage, as HLS generates it). The write-back machine pushes beats
// against the S2MM back-pressure without stalling the input side. Every
// pause point of the former process pair (pacing sleep, fill latency,
// blocked pop/push, row handoff) is one scheduled event at the same
// cycle, so the cycle accounting is unchanged — only the coroutine
// switches are gone.
func (e *Engine) start(k *sim.Kernel) {
	// Row queue drained from qHead so the backing array is reused: a
	// slid-forward slice (queue = queue[1:]) loses its front capacity
	// and reallocates on every wrap of the producer/consumer cycle.
	var queue []outRow
	qHead := 0
	avail := sim.NewSignal(k, e.name+".rows")

	// Computed rows cycle through a free list: a row buffer is reclaimed
	// as soon as the write-back side has packed it into beats, so the
	// steady state allocates nothing per row.
	var rowPool [][]byte

	// Write-back side.
	rowBeats := make([]axi.Beat, 0, e.w/8)
	var wbStep func()
	var afterPush func()
	wbStep = func() {
		if qHead == len(queue) {
			queue, qHead = queue[:0], 0
			//lint:ignore wait-graph ready/valid stream flow control: waits re-check FIFO occupancy and every fire follows a push/pop, so the static cycle is the designed handshake, not a deadlock
			avail.OnFire(wbStep)
			return
		}
		row := queue[qHead]
		queue[qHead] = outRow{} // release the row reference
		qHead++
		rowBeats = rowBeats[:0]
		for b := 0; b < len(row.pix); b += 8 {
			beat := axi.Beat{
				Data: binary.LittleEndian.Uint64(row.pix[b:]),
				Keep: axi.FullKeep,
				Last: row.last && b+8 >= len(row.pix),
			}
			rowBeats = append(rowBeats, beat)
		}
		rowPool = append(rowPool, row.pix)
		// A whole pixel row per handoff against S2MM back-pressure.
		e.out.PushBurstAsync(rowBeats, afterPush)
	}
	afterPush = func() {
		e.beatsOut += uint64(len(rowBeats))
		wbStep()
	}

	emit := func(row []byte, last bool) {
		queue = append(queue, outRow{pix: row, last: last})
		avail.Fire()
	}

	// Input/compute side.
	beatsPerRow := e.w / 8
	inBuf := make([]axi.Beat, e.in.Cap())
	src := NewImage(e.w, e.h)
	credit, row, b := 0, 0, 0
	var popStep func()
	var afterPop func(int)
	var advance func()
	var rowEmit func()
	popStep = func() {
		want := beatsPerRow - b
		if want > len(inBuf) {
			want = len(inBuf)
		}
		e.in.PopBurstAsync(inBuf[:want], afterPop)
	}
	afterPop = func(got int) {
		base := row*e.w + b*8
		for j, beat := range inBuf[:got] {
			binary.LittleEndian.PutUint64(src.Pix[base+j*8:], beat.Data)
		}
		e.beatsIn += uint64(got)
		b += got
		// Credit-based pacing, charged per burst: the cycle total is
		// identical to charging each beat in turn.
		credit += got * e.iiNum
		if credit >= e.iiDen {
			d := sim.Time(credit / e.iiDen)
			credit %= e.iiDen
			k.Schedule(d, advance)
			return
		}
		advance()
	}
	advance = func() {
		if b < beatsPerRow {
			popStep()
			return
		}
		b = 0
		// The pipeline-depth fill is charged once, after row 1 lands.
		if row == 1 {
			k.Schedule(e.fillLatency, rowEmit)
			return
		}
		rowEmit()
	}
	compute := func(y int) []byte {
		var pix []byte
		if n := len(rowPool); n > 0 {
			pix = rowPool[n-1]
			rowPool = rowPool[:n-1]
		} else {
			pix = make([]byte, e.w)
		}
		filterRow(e.name, src, y, pix)
		return pix
	}
	rowEmit = func() {
		// Row r-1 becomes computable once row r is complete.
		if row >= 1 {
			emit(compute(row-1), false)
		}
		row++
		if row < e.h {
			popStep()
			return
		}
		// The final row uses edge replication; emit it with TLAST.
		// Every pixel of src is rewritten by the next image's beats, so
		// the buffer is reused as-is.
		emit(compute(e.h-1), true)
		credit, row = 0, 0
		popStep()
	}

	// Mirror the former k.Go pair: one start event for the input side,
	// which in turn seeds the write-back side at the same cycle.
	k.Schedule(0, func() {
		k.Schedule(0, wbStep)
		popStep()
	})
}
