package mem

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"rvcap/internal/axi"
	"rvcap/internal/sim"
)

// The DDR backing store is paged (ddrPageSize pages allocated on first
// write). These tests hold it to the flat store it replaced: zeros where
// nothing was written, byte-exact round trips across page boundaries,
// the same bounds errors, and no per-burst allocation.

// pattern returns n distinct non-zero bytes.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed | 1
	}
	return b
}

// ddrReader reads len(buf) bytes at addr through one of the DDR's read
// paths; ddrWriter writes through one of its write paths.
type (
	ddrReader func(k *sim.Kernel, d *DDR, addr uint64, buf []byte) error
	ddrWriter func(k *sim.Kernel, d *DDR, addr uint64, data []byte) error
)

var ddrReaders = map[string]ddrReader{
	"Read": func(k *sim.Kernel, d *DDR, addr uint64, buf []byte) (err error) {
		k.Go("rd", func(p *sim.Proc) { err = d.Read(p, addr, buf) })
		k.Run()
		return err
	},
	"ReadAsync": func(k *sim.Kernel, d *DDR, addr uint64, buf []byte) (err error) {
		d.ReadAsync(addr, buf, func(e error) { err = e })
		k.Run()
		return err
	},
	"Peek": func(k *sim.Kernel, d *DDR, addr uint64, buf []byte) error {
		copy(buf, d.Peek(addr, len(buf)))
		return nil
	},
	"PeekInto": func(k *sim.Kernel, d *DDR, addr uint64, buf []byte) error {
		d.PeekInto(addr, buf)
		return nil
	},
}

var ddrWriters = map[string]ddrWriter{
	"Write": func(k *sim.Kernel, d *DDR, addr uint64, data []byte) (err error) {
		k.Go("wr", func(p *sim.Proc) { err = d.Write(p, addr, data) })
		k.Run()
		return err
	},
	"WriteAsync": func(k *sim.Kernel, d *DDR, addr uint64, data []byte) (err error) {
		d.WriteAsync(addr, data, func(e error) { err = e })
		k.Run()
		return err
	},
	"Load": func(k *sim.Kernel, d *DDR, addr uint64, data []byte) error {
		d.Load(addr, data)
		return nil
	},
}

func TestDDRUnwrittenPagesReadZero(t *testing.T) {
	for name, read := range ddrReaders {
		k := sim.NewKernel()
		d := NewDDR(k, 4*ddrPageSize)
		buf := bytes.Repeat([]byte{0xFF}, 2*ddrPageSize+64)
		if err := read(k, d, ddrPageSize-32, buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if i := bytes.IndexFunc(buf, func(r rune) bool { return r != 0 }); i >= 0 {
			t.Fatalf("%s: unwritten byte %d reads %#x, want 0", name, i, buf[i])
		}
	}
}

// TestDDRPageBoundaryRoundTrip writes a span straddling a page boundary
// through every write path and reads back a wider span — a written
// page's unwritten tail, the written bytes, and a page never written —
// through every read path.
func TestDDRPageBoundaryRoundTrip(t *testing.T) {
	for wname, write := range ddrWriters {
		for rname, read := range ddrReaders {
			k := sim.NewKernel()
			d := NewDDR(k, 4*ddrPageSize)
			at := uint64(ddrPageSize - 100)
			data := pattern(300, 3)
			if err := write(k, d, at, data); err != nil {
				t.Fatalf("%s: %v", wname, err)
			}
			// [P-200, 3P+8): page 0 tail, pages 1-2 (2 never written), page 3 head.
			from := uint64(ddrPageSize - 200)
			got := make([]byte, 2*ddrPageSize+208)
			if err := read(k, d, from, got); err != nil {
				t.Fatalf("%s: %v", rname, err)
			}
			want := make([]byte, len(got))
			copy(want[at-from:], data)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s then %s: span across pages does not round-trip", wname, rname)
			}
		}
	}
}

func TestDDROutOfRangeUnchanged(t *testing.T) {
	const size = 2*ddrPageSize + 64
	wantMsg := fmt.Sprintf("%v: beyond DDR size %#x", axi.ErrDecode, size)
	for name, read := range ddrReaders {
		if name == "Peek" || name == "PeekInto" {
			continue
		}
		k := sim.NewKernel()
		err := read(k, NewDDR(k, size), size-4, make([]byte, 8))
		var ae *axi.AccessError
		if !errors.As(err, &ae) || !errors.Is(err, axi.ErrDecode) || ae.Op != "read" ||
			ae.Addr != size-4 || ae.Err.Error() != wantMsg {
			t.Errorf("%s beyond size: err = %v", name, err)
		}
	}
	for name, write := range ddrWriters {
		if name == "Load" {
			continue
		}
		k := sim.NewKernel()
		err := write(k, NewDDR(k, size), size-4, make([]byte, 8))
		var ae *axi.AccessError
		if !errors.As(err, &ae) || !errors.Is(err, axi.ErrDecode) || ae.Op != "write" ||
			ae.Addr != size-4 || ae.Err.Error() != wantMsg {
			t.Errorf("%s beyond size: err = %v", name, err)
		}
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s beyond size did not panic", name)
			}
		}()
		f()
	}
	d := NewDDR(sim.NewKernel(), size)
	mustPanic("Load", func() { d.Load(size-4, make([]byte, 8)) })
	mustPanic("Peek", func() { d.Peek(size-4, 8) })
	mustPanic("PeekInto", func() { d.PeekInto(size-4, make([]byte, 8)) })
	if d.Size() != size {
		t.Errorf("Size = %d, want %d", d.Size(), size)
	}
}

// TestDDRAsyncBurstsZeroAlloc: once the pages a DMA touches exist and
// the op pools are warm, steady async bursts allocate nothing.
func TestDDRAsyncBurstsZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	d := NewDDR(k, 4*ddrPageSize)
	d.Load(0, pattern(2*ddrPageSize, 5))
	rd, wr := make([]byte, 128), pattern(128, 9)
	done := 0
	onDone := func(err error) {
		if err != nil {
			t.Error(err)
		}
		done++
	}
	addr := uint64(0)
	round := func() {
		// Bursts walk across the page boundary and back.
		addr = (addr + 120) % (2*ddrPageSize - 128)
		d.ReadAsync(addr, rd, onDone)
		d.WriteAsync(addr, wr, onDone)
		k.Run()
	}
	round() // warm-up
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Fatalf("steady async bursts allocate %.1f times per round, want 0", n)
	}
	if done == 0 {
		t.Fatal("bursts never completed")
	}
}

// TestDDRPagedFootprint: a 64 MiB DDR holding a 1 MiB bitstream costs
// about the bitstream, not the capacity.
func TestDDRPagedFootprint(t *testing.T) {
	data := pattern(1<<20, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewDDR(sim.NewKernel(), 64<<20)
	d.Load(0x0100_0000, data)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 2<<20 {
		t.Fatalf("64 MiB DDR with 1 MiB loaded grew the heap by %d bytes, want < 2 MiB", grew)
	}
}
