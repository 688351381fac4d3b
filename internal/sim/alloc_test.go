package sim

import "testing"

// The steady-state allocation contract of the kernel primitives: after
// a warm-up pass grows the backing arrays, the hot paths — calendar
// enqueue (near, same-cycle, and far), Signal.OnFire re-arm, the
// fire/dispatch loop and direct-run sleeps — must not allocate. BENCH_8/BENCH_9's allocs/op
// ceilings lean directly on these invariants.

// TestCalendarEnqueueZeroAlloc covers all three Schedule paths: a
// same-cycle event (bucket append), a small in-window delay, and a
// beyond-window delay that takes the far heap and migrates back.
func TestCalendarEnqueueZeroAlloc(t *testing.T) {
	k := NewKernel(WithQueue(CalendarQueue))
	fn := func() {}
	round := func() {
		k.Schedule(0, fn)            // same cycle
		k.Schedule(7, fn)            // in-window
		k.Schedule(ringSize+100, fn) // far heap, migrates back
		k.Run()
	}
	round() // warm the bucket and far-heap backing arrays
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("calendar enqueue+run allocates %.1f allocs per round, want 0", n)
	}
}

// TestOnFireRearmZeroAlloc re-arms a pre-bound continuation on a pulse
// signal across many fire cycles — the Stream/ICAP resume pattern. The
// subscription append, the Fire sweep, and the same-cycle dispatch must
// all reuse their backing arrays.
func TestOnFireRearmZeroAlloc(t *testing.T) {
	k := NewKernel(WithQueue(CalendarQueue))
	sig := NewSignal(k, "rearm")
	fires := 0
	fn := func() { fires++ }
	round := func() {
		sig.OnFire(fn)
		sig.Fire()
		k.Run()
	}
	round() // warm-up
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("OnFire re-arm allocates %.1f allocs per round, want 0", n)
	}
	if fires == 0 {
		t.Fatal("continuation never ran")
	}
}

// TestWaitRearmZeroAlloc is the process-side twin: a Proc parked in
// Wait is woken by Fire without a per-wake closure or boxed event.
func TestWaitRearmZeroAlloc(t *testing.T) {
	k := NewKernel(WithQueue(CalendarQueue))
	sig := NewSignal(k, "wait")
	wakes := 0
	k.Go("waiter", func(p *Proc) {
		for {
			p.Wait(sig)
			wakes++
		}
	})
	k.Run() // park the process
	round := func() {
		sig.Fire()
		k.Run()
	}
	round() // warm-up
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("Wait/Fire wake allocates %.1f allocs per round, want 0", n)
	}
	if wakes == 0 {
		t.Fatal("waiter never woke")
	}
}

// TestSleepDirectRunZeroAlloc covers the direct-run path of Proc.Sleep:
// a lone process sleeping with nothing else pending advances time in
// place — same-cycle, in-window and beyond-window delays alike — with
// no queue entry, no coroutine switch and no allocation.
func TestSleepDirectRunZeroAlloc(t *testing.T) {
	k := NewKernel(WithQueue(CalendarQueue))
	sig := NewSignal(k, "round")
	delays := [...]Time{0, 1, 7, ringSize + 3}
	const sleepsPerRound = 64
	direct, rounds := 0, 0
	k.Go("sleeper", func(p *Proc) {
		for {
			p.Wait(sig)
			for i := 0; i < sleepsPerRound; i++ {
				p.Sleep(delays[i%len(delays)])
				if sleptInPlace(k) {
					direct++
				}
			}
		}
	})
	k.Run() // park the process
	round := func() {
		rounds++
		sig.Fire()
		k.Run()
	}
	round() // warm-up
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("direct-run sleep loop allocates %.1f allocs per round, want 0", n)
	}
	if direct != rounds*sleepsPerRound {
		t.Fatalf("%d of %d sleeps advanced in place, want all", direct, rounds*sleepsPerRound)
	}
}
