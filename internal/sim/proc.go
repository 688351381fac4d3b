package sim

import (
	"fmt"
	"iter"
	"runtime"
	"runtime/debug"
)

// PanicError wraps a panic that escaped a simulation process. The kernel
// re-panics with it from dispatch so the crash surfaces on the caller's
// stack, but the original panic value and the goroutine stack where it
// happened are preserved for diagnosis instead of being flattened into a
// string.
type PanicError struct {
	// Proc is the name of the process whose function panicked.
	Proc string
	// Value is the original value passed to panic.
	Value interface{}
	// Stack is the process goroutine's stack captured at recover time,
	// pointing at the panic site rather than at dispatch.
	Stack []byte
}

// Error formats the failure with the originating process and panic value.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", e.Proc, e.Value)
}

// Unwrap exposes the original panic value when it was itself an error,
// so errors.Is/As work through the wrapper.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Proc is a cooperative simulation process: a coroutine that runs device
// engines or software drivers as ordinary sequential code, interleaved
// deterministically with the event queue. Exactly one of {kernel, some
// process} executes at any moment; control transfers are direct
// coroutine switches (iter.Pull's runtime coroswitch), which hand
// control goroutine-to-goroutine without a trip through the Go
// scheduler — several times cheaper than the channel ping-pong they
// replace — so the simulation stays single-threaded in effect and fully
// reproducible.
type Proc struct {
	k      *Kernel
	name   string
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	done   bool
	panicv *PanicError

	// waitGen invalidates signal subscriptions: a waiter whose recorded
	// generation no longer matches is stale (its process was already
	// woken by another signal or is past that wait) and is skipped by
	// Fire. It is bumped on every signal wake-up.
	waitGen uint64
	// wake records which signal won a Wait/WaitAny, so WaitAny can
	// return the index without allocating a closure per subscription.
	wake *Signal

	// Scratch is a per-process buffer for leaf transaction helpers
	// (axi.ReadU32 and friends): a blocking bus call's staging buffer is
	// live exactly for the call, and a process runs one blocking call at
	// a time, so sharing the array is safe and spares a heap escape per
	// register access (the slave interface makes a stack array escape).
	Scratch [8]byte
}

// Go starts fn as a simulation process. fn begins executing at the
// current cycle (after pending same-cycle events). The returned Proc can
// be waited on via its Done signal semantics through Join.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				p.panicv = &PanicError{Proc: p.name, Value: r, Stack: debug.Stack()}
			}
			p.done = true
		}()
		fn(p)
	})
	k.push(k.now, entry{proc: p})
	return p
}

// dispatch hands control to p until it yields or finishes.
func (k *Kernel) dispatch(p *Proc) {
	if p.done {
		return
	}
	p.next()
	if p.panicv != nil {
		panic(p.panicv)
	}
}

// pause yields control back to the kernel until something re-dispatches p.
func (p *Proc) pause() {
	if !p.yield(struct{}{}) {
		// The pull was stopped out from under us; nothing will ever
		// resume this process, so unwind its goroutine.
		runtime.Goexit()
	}
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated cycle.
func (p *Proc) Now() Time { return p.k.now }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep suspends the process for d cycles of simulated time. If any
// other event is pending at or before the wake cycle, the process yields
// and is re-dispatched behind it, so a zero delay lets same-cycle events
// interleave fairly. If none is, and Run or RunUntil is driving the
// calendar queue, the process is the next thing that would run anyway:
// time advances in place, the wake still counts in Events, and the
// process keeps running without a coroutine switch. Event order, time
// and event counts are identical either way.
func (p *Proc) Sleep(d Time) {
	if p.k.sleepInPlace(p.k.now + d) {
		return
	}
	p.k.push(p.k.now+d, entry{proc: p})
	p.pause()
}

// Wait suspends the process until s fires. If s has already latched (see
// Signal.Latch), Wait returns immediately without yielding time.
func (p *Proc) Wait(s *Signal) {
	if s.latched {
		return
	}
	s.waiters = append(s.waiters, waiter{p: p, gen: p.waitGen})
	p.pause()
}

// WaitAny suspends until any one of the given signals fires and returns
// its index. Latched signals win immediately (lowest index first).
//
// On wake-up the losing signals' subscriptions are swept immediately:
// without the sweep a polling loop (WaitAny in a for loop, as the
// scheduler's partition workers do) grows every non-firing signal's
// waiter list without bound.
func (p *Proc) WaitAny(sigs ...*Signal) int {
	for i, s := range sigs {
		if s.latched {
			return i
		}
	}
	gen := p.waitGen
	for _, s := range sigs {
		s.waiters = append(s.waiters, waiter{p: p, gen: gen})
	}
	p.pause()
	winner := p.wake
	p.wake = nil
	idx := -1
	for i, s := range sigs {
		if s == winner && idx < 0 {
			// The winner cleared its whole list when it fired.
			idx = i
			continue
		}
		s.sweep(p, gen)
	}
	return idx
}

// Join suspends the calling process until other finishes.
func (p *Proc) Join(other *Proc, done *Signal) {
	for !other.done {
		p.Wait(done)
	}
}

// waiter is one subscription on a Signal: either a process (Wait /
// WaitAny) or a continuation callback (OnFire). Storing the process and
// its wait generation (instead of a per-call closure) keeps Wait/WaitAny
// and Fire allocation-free on the steady state and lets Fire detect
// stale WaitAny subscriptions without running them. Proc and callback
// subscriptions share one FIFO list, so a mixed population wakes in
// exact subscription order.
type waiter struct {
	p   *Proc
	gen uint64
	fn  func()
}

// Signal is a broadcast wake-up: processes Wait on it, Fire wakes all
// current waiters. With Latch set, a fired signal stays "on" so that
// late waiters return immediately (completion semantics); Reset rearms it.
type Signal struct {
	k       *Kernel
	name    string
	waiters []waiter
	latched bool
	latch   bool
}

// NewSignal returns a pulse-style signal: Fire wakes current waiters only.
func NewSignal(k *Kernel, name string) *Signal {
	return &Signal{k: k, name: name}
}

// NewLatchedSignal returns a completion-style signal: once fired it stays
// set until Reset, and waiters arriving after Fire do not block.
func NewLatchedSignal(k *Kernel, name string) *Signal {
	return &Signal{k: k, name: name, latch: true}
}

// sweep removes p's subscription with the given generation, preserving
// the order of the remaining waiters.
func (s *Signal) sweep(p *Proc, gen uint64) {
	for i, w := range s.waiters {
		if w.p == p && w.gen == gen {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// OnFire subscribes a one-shot continuation: fn is scheduled as a fresh
// same-cycle event when the signal next fires, at the exact queue
// position a process parked in Wait would have woken at. If the signal
// is already latched, fn runs synchronously — mirroring Wait's
// immediate return. This is the callback half of the continuation-style
// device engines: a state machine resumes where a coroutine would have
// been re-dispatched, with identical cycle accounting.
func (s *Signal) OnFire(fn func()) {
	if s.latched {
		fn()
		return
	}
	s.waiters = append(s.waiters, waiter{fn: fn})
}

// Fire wakes every current waiter (each as a fresh same-cycle event) and,
// for latched signals, sets the latch. Stale subscriptions — waiters
// whose process was already woken by another signal of a WaitAny set —
// are dropped without scheduling anything.
func (s *Signal) Fire() {
	if s.latch {
		s.latched = true
	}
	ws := s.waiters
	s.waiters = s.waiters[:0]
	for _, w := range ws {
		if w.p == nil {
			s.k.push(s.k.now, entry{fn: w.fn})
			continue
		}
		if w.gen != w.p.waitGen {
			continue
		}
		w.p.waitGen++
		w.p.wake = s
		s.k.push(s.k.now, entry{proc: w.p})
	}
}

// Set reports whether a latched signal is currently set.
func (s *Signal) Set() bool { return s.latched }

// Reset rearms a latched signal.
func (s *Signal) Reset() { s.latched = false }

// resWaiter is one queued grant request: a parked process or a
// continuation callback. Both kinds share the FIFO so grant order is
// strictly arrival order regardless of caller style.
type resWaiter struct {
	p  *Proc
	fn func()
}

// Resource is a FIFO-fair exclusive resource (e.g. the DDR port or a bus
// grant). Acquire blocks the calling process until the resource is free.
type Resource struct {
	k     *Kernel
	name  string
	busy  bool
	queue []resWaiter
}

// NewResource returns an idle resource.
func NewResource(k *Kernel, name string) *Resource {
	return &Resource{k: k, name: name}
}

// Acquire takes the resource, blocking the process in FIFO order while it
// is held elsewhere.
func (r *Resource) Acquire(p *Proc) {
	if !r.busy {
		r.busy = true
		return
	}
	r.queue = append(r.queue, resWaiter{p: p})
	p.pause()
	// Ownership was transferred to us by Release before the wake-up.
}

// AcquireAsync takes the resource for a continuation-style caller: fn
// runs with ownership held. A free resource grants synchronously
// (matching Acquire's no-yield fast path); a busy one queues fn in the
// same FIFO as process waiters, and Release schedules it as a fresh
// same-cycle event exactly where the process wake would have landed.
func (r *Resource) AcquireAsync(fn func()) {
	if !r.busy {
		r.busy = true
		fn()
		return
	}
	r.queue = append(r.queue, resWaiter{fn: fn})
}

// Release frees the resource, handing it to the oldest waiter if any.
func (r *Resource) Release() {
	if !r.busy {
		panic("sim: Release of idle resource " + r.name)
	}
	if len(r.queue) == 0 {
		r.busy = false
		return
	}
	next := r.queue[0]
	copy(r.queue, r.queue[1:])
	r.queue = r.queue[:len(r.queue)-1]
	// Stay busy: the waiter inherits ownership.
	if next.p != nil {
		r.k.push(r.k.now, entry{proc: next.p})
	} else {
		r.k.push(r.k.now, entry{fn: next.fn})
	}
}

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.busy }
