// Package mem provides the storage endpoints of the SoC: the external
// DDR memory behind the memory controller (where partial bitstreams and
// application data live) and the on-chip boot BRAM that holds the
// RISC-V program image.
package mem

import (
	"fmt"

	"rvcap/internal/axi"
	"rvcap/internal/sim"
)

// DDR models the SoC DDR memory behind a MIG-style controller. The user
// interface runs at the 100 MHz fabric clock with a 64-bit data path in
// each direction, so reads and writes proceed concurrently; each
// direction serves one 8-byte beat per cycle. A transaction pays the
// controller/DRAM access latency up front (address phase, row access)
// and then holds its direction's data port for the beat count, which is
// what lets back-to-back bursts from a prefetching DMA pipeline into
// full streaming bandwidth.
type DDR struct {
	k         *sim.Kernel
	size      int
	pages     [][]byte // ddrPageSize each, allocated on first write
	readPort  *sim.Resource
	writePort *sim.Resource

	// Latency is the cycles from accepting an address to the first data
	// beat (controller queue + DRAM access, row-buffer-friendly
	// sequential traffic). calibrated: 11 cycles (plus the 1-cycle
	// point-to-point crossbar in front of the controller) keeps a
	// 16-beat-burst DMA at 28 cycles/128-byte burst = 1.75 cycles/beat,
	// fast enough
	// that the ICAP (2 cycles/beat) stays the reconfiguration
	// bottleneck and the filter cores (1.79-1.85 cycles/beat) stay the
	// acceleration bottleneck, matching both the paper's 398.1 MB/s and
	// its Table IV compute times.
	Latency sim.Time

	// BytesPerBeat is the data-path width (64-bit user interface).
	BytesPerBeat int

	bytesRead    uint64
	bytesWritten uint64

	// Free lists of async transaction continuations (see ddrOp).
	readOps  []*ddrOp
	writeOps []*ddrOp
}

// DefaultDDRLatency is the calibrated first-beat latency in cycles.
const DefaultDDRLatency sim.Time = 11

// The backing store is paged: a scenario touches a few MiB of the
// 64 MiB DDR, so a page is allocated on its first write, and a page
// never written reads as zeros. Paging is invisible to timing, ports,
// bounds and Size.
const (
	ddrPageShift = 16
	ddrPageSize  = 1 << ddrPageShift
)

// NewDDR returns a DDR model with size bytes of zeroed backing store.
func NewDDR(k *sim.Kernel, size int) *DDR {
	return &DDR{
		k:            k,
		size:         size,
		pages:        make([][]byte, (size+ddrPageSize-1)/ddrPageSize),
		readPort:     sim.NewResource(k, "ddr.rd"),
		writePort:    sim.NewResource(k, "ddr.wr"),
		Latency:      DefaultDDRLatency,
		BytesPerBeat: 8,
	}
}

// Size returns the capacity in bytes.
func (d *DDR) Size() int { return d.size }

// BytesRead returns the total bytes served by the read port.
func (d *DDR) BytesRead() uint64 { return d.bytesRead }

// BytesWritten returns the total bytes absorbed by the write port.
func (d *DDR) BytesWritten() uint64 { return d.bytesWritten }

func (d *DDR) bounds(op string, addr uint64, n int) error {
	if addr+uint64(n) > uint64(d.size) {
		return &axi.AccessError{Op: op, Addr: addr,
			Err: fmt.Errorf("%w: beyond DDR size %#x", axi.ErrDecode, d.size)}
	}
	return nil
}

// copyOut fills buf from the backing store at addr (in bounds).
func (d *DDR) copyOut(buf []byte, addr uint64) {
	for len(buf) > 0 {
		off := int(addr & (ddrPageSize - 1))
		n := min(len(buf), ddrPageSize-off)
		if pg := d.pages[addr>>ddrPageShift]; pg != nil {
			copy(buf[:n], pg[off:])
		} else {
			clear(buf[:n])
		}
		buf, addr = buf[n:], addr+uint64(n)
	}
}

// copyIn stores data at addr (in bounds), allocating untouched pages.
func (d *DDR) copyIn(addr uint64, data []byte) {
	for len(data) > 0 {
		pg := d.pages[addr>>ddrPageShift]
		if pg == nil {
			pg = make([]byte, ddrPageSize)
			d.pages[addr>>ddrPageShift] = pg
		}
		n := copy(pg[addr&(ddrPageSize-1):], data)
		data, addr = data[n:], addr+uint64(n)
	}
}

func (d *DDR) beats(n int) sim.Time {
	return sim.Time((n + d.BytesPerBeat - 1) / d.BytesPerBeat)
}

// Read serves a read burst: latency, then one cycle per beat on the
// shared read port.
func (d *DDR) Read(p *sim.Proc, addr uint64, buf []byte) error {
	if err := d.bounds("read", addr, len(buf)); err != nil {
		return err
	}
	p.Sleep(d.Latency)
	d.readPort.Acquire(p)
	p.Sleep(d.beats(len(buf)))
	d.copyOut(buf, addr)
	d.bytesRead += uint64(len(buf))
	d.readPort.Release()
	return nil
}

// Write absorbs a write burst on the shared write port.
func (d *DDR) Write(p *sim.Proc, addr uint64, data []byte) error {
	if err := d.bounds("write", addr, len(data)); err != nil {
		return err
	}
	p.Sleep(d.Latency)
	d.writePort.Acquire(p)
	p.Sleep(d.beats(len(data)))
	d.copyIn(addr, data)
	d.bytesWritten += uint64(len(data))
	d.writePort.Release()
	return nil
}

// Load copies data into DDR without consuming simulated time. It models
// contents that exist before the measured window opens (e.g. a bitstream
// already staged by an earlier, unmeasured phase) and is used by tests
// and workload setup.
func (d *DDR) Load(addr uint64, data []byte) {
	if addr+uint64(len(data)) > uint64(d.size) {
		panic(fmt.Sprintf("mem: Load of %d bytes at %#x beyond DDR size %#x", len(data), addr, d.size))
	}
	d.copyIn(addr, data)
}

// Peek copies n bytes out without consuming simulated time.
func (d *DDR) Peek(addr uint64, n int) []byte {
	out := make([]byte, n)
	d.PeekInto(addr, out)
	return out
}

// PeekInto fills buf from addr without consuming simulated time.
func (d *DDR) PeekInto(addr uint64, buf []byte) {
	if addr+uint64(len(buf)) > uint64(d.size) {
		panic(fmt.Sprintf("mem: Peek of %d bytes at %#x beyond DDR size %#x", len(buf), addr, d.size))
	}
	d.copyOut(buf, addr)
}

// ddrOp is a pooled in-flight async transaction. Its three continuation
// closures are bound once when the op is first allocated and survive
// reuse through the free list, so steady-state DMA traffic schedules
// bursts without allocating.
type ddrOp struct {
	d     *DDR
	write bool
	addr  uint64
	buf   []byte
	done  func(error)

	afterLatency func() // latency paid: contend for the port
	afterPort    func() // port granted: pay the beat cycles
	afterBeats   func() // data moved: release and complete
}

func (d *DDR) getOp(write bool) *ddrOp {
	pool := &d.readOps
	if write {
		pool = &d.writeOps
	}
	if n := len(*pool); n > 0 {
		op := (*pool)[n-1]
		*pool = (*pool)[:n-1]
		return op
	}
	op := &ddrOp{d: d, write: write}
	port := d.readPort
	if write {
		port = d.writePort
	}
	op.afterLatency = func() { port.AcquireAsync(op.afterPort) }
	op.afterPort = func() { op.d.k.Schedule(op.d.beats(len(op.buf)), op.afterBeats) }
	op.afterBeats = func() {
		dd := op.d
		if op.write {
			dd.copyIn(op.addr, op.buf)
			dd.bytesWritten += uint64(len(op.buf))
		} else {
			dd.copyOut(op.buf, op.addr)
			dd.bytesRead += uint64(len(op.buf))
		}
		port.Release()
		done := op.done
		op.buf, op.done = nil, nil
		if op.write {
			dd.writeOps = append(dd.writeOps, op)
		} else {
			dd.readOps = append(dd.readOps, op)
		}
		done(nil)
	}
	return op
}

// ReadAsync serves a read burst continuation-style: the same latency,
// port arbitration and beat cycles as Read, charged through scheduled
// events instead of process sleeps, with done(nil) running at the exact
// cycle Read would have returned.
func (d *DDR) ReadAsync(addr uint64, buf []byte, done func(error)) {
	if err := d.bounds("read", addr, len(buf)); err != nil {
		done(err)
		return
	}
	op := d.getOp(false)
	op.addr, op.buf, op.done = addr, buf, done
	d.k.Schedule(d.Latency, op.afterLatency)
}

// WriteAsync absorbs a write burst continuation-style on the shared
// write port, with Write's exact cycle accounting.
func (d *DDR) WriteAsync(addr uint64, data []byte, done func(error)) {
	if err := d.bounds("write", addr, len(data)); err != nil {
		done(err)
		return
	}
	op := d.getOp(true)
	op.addr, op.buf, op.done = addr, data, done
	d.k.Schedule(d.Latency, op.afterLatency)
}

var _ axi.Slave = (*DDR)(nil)
var _ axi.AsyncSlave = (*DDR)(nil)

// BRAM models on-chip block-RAM memory (the SoC boot memory): one-cycle
// access, one beat per cycle, no port contention beyond the single port.
type BRAM struct {
	k    *sim.Kernel
	name string
	data []byte
	port *sim.Resource
}

// NewBRAM returns a BRAM of the given size.
func NewBRAM(k *sim.Kernel, name string, size int) *BRAM {
	return &BRAM{k: k, name: name, data: make([]byte, size), port: sim.NewResource(k, name+".port")}
}

// Size returns the capacity in bytes.
func (b *BRAM) Size() int { return len(b.data) }

func (b *BRAM) bounds(op string, addr uint64, n int) error {
	if addr+uint64(n) > uint64(len(b.data)) {
		return &axi.AccessError{Op: op, Addr: addr,
			Err: fmt.Errorf("%w: beyond %s size %#x", axi.ErrDecode, b.name, len(b.data))}
	}
	return nil
}

func (b *BRAM) Read(p *sim.Proc, addr uint64, buf []byte) error {
	if err := b.bounds("read", addr, len(buf)); err != nil {
		return err
	}
	b.port.Acquire(p)
	p.Sleep(1 + sim.Time((len(buf)+7)/8))
	copy(buf, b.data[addr:])
	b.port.Release()
	return nil
}

func (b *BRAM) Write(p *sim.Proc, addr uint64, data []byte) error {
	if err := b.bounds("write", addr, len(data)); err != nil {
		return err
	}
	b.port.Acquire(p)
	p.Sleep(1 + sim.Time((len(data)+7)/8))
	copy(b.data[addr:], data)
	b.port.Release()
	return nil
}

// Load copies a program image into the BRAM without simulated time.
func (b *BRAM) Load(addr uint64, data []byte) {
	if addr+uint64(len(data)) > uint64(len(b.data)) {
		panic(fmt.Sprintf("mem: Load of %d bytes at %#x beyond %s size %#x", len(data), addr, b.name, len(b.data)))
	}
	copy(b.data[addr:], data)
}

// Peek copies n bytes out without simulated time.
func (b *BRAM) Peek(addr uint64, n int) []byte {
	out := make([]byte, n)
	copy(out, b.data[addr:addr+uint64(n)])
	return out
}

var _ axi.Slave = (*BRAM)(nil)
