package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// bothQueues runs fn once per queue implementation so behavioural tests
// cover the calendar ring and the legacy heap identically.
func bothQueues(t *testing.T, fn func(t *testing.T, k *Kernel)) {
	t.Helper()
	for _, q := range []QueueKind{CalendarQueue, LegacyHeap} {
		name := "calendar"
		if q == LegacyHeap {
			name = "legacy"
		}
		t.Run(name, func(t *testing.T) {
			fn(t, NewKernel(WithQueue(q)))
		})
	}
}

func TestQueueKindSelection(t *testing.T) {
	if q := NewKernel().Queue(); q != CalendarQueue {
		t.Fatalf("default queue = %v, want CalendarQueue", q)
	}
	if q := NewKernel(WithQueue(LegacyHeap)).Queue(); q != LegacyHeap {
		t.Fatalf("WithQueue(LegacyHeap) queue = %v, want LegacyHeap", q)
	}
	old := DefaultQueue
	DefaultQueue = LegacyHeap
	defer func() { DefaultQueue = old }()
	if q := NewKernel().Queue(); q != LegacyHeap {
		t.Fatalf("DefaultQueue=LegacyHeap kernel queue = %v, want LegacyHeap", q)
	}
}

// TestCalendarFarFutureOrdering schedules events far beyond the ring
// window interleaved with near events and checks global (time, FIFO)
// order survives the far-heap migration.
func TestCalendarFarFutureOrdering(t *testing.T) {
	bothQueues(t, func(t *testing.T, k *Kernel) {
		var got []string
		add := func(at Time, tag string) {
			k.At(at, func() { got = append(got, fmt.Sprintf("%d:%s", at, tag)) })
		}
		// Far events first (beyond ringSize), then near, then same-cycle
		// duplicates to exercise FIFO ties across the migration boundary.
		add(10_000, "far-a")
		add(10_000, "far-b")
		add(700, "mid")
		add(3, "near")
		add(10_000, "far-c")
		k.Run()
		want := []string{"3:near", "700:mid", "10000:far-a", "10000:far-b", "10000:far-c"}
		if len(got) != len(want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d = %q, want %q (full: %v)", i, got[i], want[i], got)
			}
		}
	})
}

// TestCalendarRandomStormMatchesLegacy drives both queues with an
// identical pseudo-random schedule (including events landing exactly on
// window boundaries) and requires identical firing order.
func TestCalendarRandomStormMatchesLegacy(t *testing.T) {
	run := func(q QueueKind) []string {
		k := NewKernel(WithQueue(q))
		rng := rand.New(rand.NewSource(42))
		var got []string
		var id int
		var spawn func(depth int)
		spawn = func(depth int) {
			n := id
			id++
			// Mix of same-cycle, in-window, boundary and far delays.
			delays := []Time{0, 1, ringSize - 1, ringSize, ringSize + 1, Time(rng.Intn(4 * ringSize))}
			d := delays[rng.Intn(len(delays))]
			k.Schedule(d, func() {
				got = append(got, fmt.Sprintf("%d@%d", n, k.Now()))
				if depth < 4 {
					spawn(depth + 1)
					spawn(depth + 1)
				}
			})
		}
		for i := 0; i < 8; i++ {
			spawn(0)
		}
		k.Run()
		return got
	}
	a, b := run(CalendarQueue), run(LegacyHeap)
	if len(a) != len(b) {
		t.Fatalf("event counts differ: calendar %d, legacy %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: calendar %q, legacy %q", i, a[i], b[i])
		}
	}
	if len(a) < 100 {
		t.Fatalf("storm too small to be meaningful: %d events", len(a))
	}
}

// TestRunUntilBetweenEvents advances time to a t that no event lands on,
// with the next event beyond the calendar window, and checks that (a) the
// queue keeps the pending event, (b) time reads t, and (c) scheduling at
// the new current time still works — i.e. the bucket window followed time.
func TestRunUntilBetweenEvents(t *testing.T) {
	bothQueues(t, func(t *testing.T, k *Kernel) {
		var fired []Time
		k.At(5, func() { fired = append(fired, k.Now()) })
		k.At(3*ringSize, func() { fired = append(fired, k.Now()) })

		k.RunUntil(ringSize + 7) // lands strictly between the two events
		if k.Now() != ringSize+7 {
			t.Fatalf("Now() = %d, want %d", k.Now(), ringSize+7)
		}
		if len(fired) != 1 || fired[0] != 5 {
			t.Fatalf("fired = %v, want [5]", fired)
		}
		if k.Pending() != 1 {
			t.Fatalf("Pending() = %d, want 1", k.Pending())
		}

		// The ring is empty here; a same-cycle schedule must fire before
		// the far event and at the correct cycle.
		k.Schedule(0, func() { fired = append(fired, k.Now()) })
		k.Run()
		want := []Time{5, ringSize + 7, 3 * ringSize}
		if len(fired) != 3 || fired[1] != want[1] || fired[2] != want[2] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	})
}

// TestRunUntilEmptyQueueThenSchedule: RunUntil on a drained queue must
// still advance time, and later scheduling from that time must work even
// though the calendar window was never walked forward.
func TestRunUntilEmptyQueueThenSchedule(t *testing.T) {
	bothQueues(t, func(t *testing.T, k *Kernel) {
		k.RunUntil(1_000_000)
		if k.Now() != 1_000_000 {
			t.Fatalf("Now() = %d, want 1000000", k.Now())
		}
		var at Time
		k.Schedule(2, func() { at = k.Now() })
		k.Run()
		if at != 1_000_002 {
			t.Fatalf("event fired at %d, want 1000002", at)
		}
	})
}

// TestWaitAnySweepsLosers is the regression test for the stale-
// subscription leak: a WaitAny polling loop must not grow the waiter
// lists of the signals that keep losing.
func TestWaitAnySweepsLosers(t *testing.T) {
	bothQueues(t, func(t *testing.T, k *Kernel) {
		a := NewSignal(k, "a")
		b := NewSignal(k, "b")
		c := NewSignal(k, "c")
		const rounds = 100
		wins := 0
		k.Go("poller", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				if got := p.WaitAny(a, b, c); got != 1 {
					t.Errorf("round %d: WaitAny = %d, want 1", i, got)
					return
				}
				wins++
			}
		})
		k.Go("firer", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Sleep(10)
				b.Fire()
			}
		})
		k.Run()
		if wins != rounds {
			t.Fatalf("poller won %d rounds, want %d", wins, rounds)
		}
		for _, s := range []*Signal{a, b, c} {
			if n := len(s.waiters); n != 0 {
				t.Errorf("signal %s still holds %d stale waiters after %d rounds", s.name, n, rounds)
			}
		}
	})
}

// TestWaitAnyStaleFireIsNoop: after one signal of a WaitAny set wins,
// firing a losing signal later must not wake anything or panic — its
// subscription was swept.
func TestWaitAnyStaleFireIsNoop(t *testing.T) {
	bothQueues(t, func(t *testing.T, k *Kernel) {
		a := NewSignal(k, "a")
		b := NewSignal(k, "b")
		wakes := 0
		k.Go("waiter", func(p *Proc) {
			if got := p.WaitAny(a, b); got != 0 {
				t.Errorf("WaitAny = %d, want 0", got)
			}
			wakes++
			p.Sleep(100) // stay alive across the stale fire
		})
		k.Go("driver", func(p *Proc) {
			p.Sleep(1)
			a.Fire()
			p.Sleep(1)
			b.Fire() // must be a no-op: waiter already left this WaitAny
		})
		k.Run()
		if wakes != 1 {
			t.Fatalf("waiter woke %d times, want 1", wakes)
		}
	})
}

// TestWaitAnySameCycleDoubleFire: two signals of one WaitAny set firing
// in the same cycle must wake the process exactly once, attributed to
// whichever fired first.
func TestWaitAnySameCycleDoubleFire(t *testing.T) {
	bothQueues(t, func(t *testing.T, k *Kernel) {
		a := NewSignal(k, "a")
		b := NewSignal(k, "b")
		var got []int
		k.Go("waiter", func(p *Proc) {
			got = append(got, p.WaitAny(a, b))
		})
		k.Schedule(5, func() {
			b.Fire()
			a.Fire()
		})
		k.Run()
		if len(got) != 1 || got[0] != 1 {
			t.Fatalf("wakes = %v, want [1] (first firer wins)", got)
		}
	})
}

// TestResourceFIFOFairness: N contenders acquiring in a loop must be
// granted strictly round-robin — no waiter is ever passed over.
func TestResourceFIFOFairness(t *testing.T) {
	bothQueues(t, func(t *testing.T, k *Kernel) {
		r := NewResource(k, "ddr")
		const workers = 5
		const rounds = 20
		var grants []int
		for w := 0; w < workers; w++ {
			w := w
			k.Go(fmt.Sprintf("w%d", w), func(p *Proc) {
				for i := 0; i < rounds; i++ {
					r.Acquire(p)
					grants = append(grants, w)
					p.Sleep(3)
					r.Release()
				}
			})
		}
		k.Run()
		if len(grants) != workers*rounds {
			t.Fatalf("grants = %d, want %d", len(grants), workers*rounds)
		}
		// All workers enqueue at cycle 0 in spawn order and re-enqueue
		// immediately after releasing, so FIFO ⇒ strict round-robin.
		for i, g := range grants {
			if g != i%workers {
				t.Fatalf("grant %d went to worker %d, want %d (FIFO violated)", i, g, i%workers)
			}
		}
		if r.Busy() {
			t.Fatal("resource still busy after all workers finished")
		}
	})
}

// TestSchedulePastWindowAfterIdle: push events far enough apart that the
// window repeatedly goes stale, exercising the far-heap catch-up path.
func TestSchedulePastWindowAfterIdle(t *testing.T) {
	k := NewKernel()
	var fired []Time
	var step func()
	step = func() {
		fired = append(fired, k.Now())
		if len(fired) < 6 {
			k.Schedule(10*ringSize, step)
		}
	}
	k.Schedule(1, step)
	k.Run()
	if len(fired) != 6 {
		t.Fatalf("fired %d times, want 6: %v", len(fired), fired)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i]-fired[i-1] != 10*ringSize {
			t.Fatalf("gap %d = %d cycles, want %d", i, fired[i]-fired[i-1], 10*ringSize)
		}
	}
}

// sleptInPlace reports, from inside a process right after Sleep returned,
// whether that sleep took the direct-run path (calendar queue only): a
// re-dispatch from the queue consumes the wake entry and leaves the
// bucket cursor past it, while an in-place advance leaves the new
// cycle's bucket untouched.
func sleptInPlace(k *Kernel) bool {
	return k.pos == 0 && len(k.ring[k.base&ringMask]) == 0
}

// TestSleepDirectRunEligibility pins down when Proc.Sleep advances time
// in place on the calendar queue: only under Run or RunUntil with the
// wake cycle inside the limit, with no Halt pending, and with no other
// event at or before the wake cycle. Each scenario also runs on the
// legacy heap, which never takes the path, and must fire the same
// events at the same cycles, end at the same time and count the same
// events.
func TestSleepDirectRunEligibility(t *testing.T) {
	drain := func(k *Kernel) {
		for k.Pending() > 0 {
			k.Run()
		}
	}
	cases := []struct {
		name  string
		body  func(k *Kernel, p *Proc, note func())
		drive func(k *Kernel)
		want  bool
	}{
		{"lone sleeper", func(k *Kernel, p *Proc, note func()) { p.Sleep(5) }, drain, true},
		{"zero delay, nothing else this cycle", func(k *Kernel, p *Proc, note func()) { p.Sleep(0) }, drain, true},
		{"zero delay behind a same-cycle event", func(k *Kernel, p *Proc, note func()) {
			k.Schedule(0, note)
			p.Sleep(0)
		}, drain, false},
		{"event at the wake cycle", func(k *Kernel, p *Proc, note func()) {
			k.Schedule(5, note)
			p.Sleep(5)
		}, drain, false},
		{"event after the wake cycle", func(k *Kernel, p *Proc, note func()) {
			k.Schedule(6, note)
			p.Sleep(5)
		}, drain, true},
		{"far event at the wake cycle", func(k *Kernel, p *Proc, note func()) {
			k.Schedule(3*ringSize, note)
			p.Sleep(3 * ringSize)
		}, drain, false},
		{"far sleep just before a far event", func(k *Kernel, p *Proc, note func()) {
			k.Schedule(3*ringSize, note)
			k.Schedule(4*ringSize, note)
			p.Sleep(3*ringSize - 1)
		}, drain, true},
		{"halt pending", func(k *Kernel, p *Proc, note func()) {
			k.Halt()
			p.Sleep(5)
		}, drain, false},
		{"within the RunUntil limit", func(k *Kernel, p *Proc, note func()) { p.Sleep(5) },
			func(k *Kernel) { k.RunUntil(5); drain(k) }, true},
		{"past the RunUntil limit", func(k *Kernel, p *Proc, note func()) { p.Sleep(6) },
			func(k *Kernel) { k.RunUntil(5); drain(k) }, false},
		{"dispatched by Step", func(k *Kernel, p *Proc, note func()) { p.Sleep(5) },
			func(k *Kernel) {
				for k.Step() {
				}
			}, false},
	}
	type outcome struct {
		log    string
		now    Time
		events uint64
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var results [2]outcome
			for i, q := range []QueueKind{CalendarQueue, LegacyHeap} {
				k := NewKernel(WithQueue(q))
				var log string
				note := func() { log += fmt.Sprintf("event@%d ", k.Now()) }
				k.Go("sleeper", func(p *Proc) {
					c.body(k, p, note)
					if q == CalendarQueue {
						if got := sleptInPlace(k); got != c.want {
							t.Errorf("slept in place = %v, want %v", got, c.want)
						}
					}
					log += fmt.Sprintf("woke@%d ", k.Now())
				})
				c.drive(k)
				results[i] = outcome{log, k.Now(), k.Events()}
			}
			if results[0] != results[1] {
				t.Fatalf("calendar %+v, legacy %+v", results[0], results[1])
			}
		})
	}
}

// TestSleepDirectRunNestedStep covers Step called from inside a Run: the
// process it dispatches must still run for exactly one event, so its
// sleep takes the round trip even though the enclosing Run would allow
// the direct-run path.
func TestSleepDirectRunNestedStep(t *testing.T) {
	k := NewKernel(WithQueue(CalendarQueue))
	var woke Time
	k.At(1, func() {
		k.Go("sleeper", func(p *Proc) {
			p.Sleep(5)
			if sleptInPlace(k) {
				t.Error("sleep dispatched by a nested Step advanced in place")
			}
			woke = k.Now()
		})
		if !k.Step() {
			t.Error("nested Step found no event")
		}
		if woke != 0 {
			t.Errorf("nested Step ran the sleeper on to cycle %d", woke)
		}
	})
	k.Run()
	if woke != 6 {
		t.Fatalf("sleeper woke at %d, want 6", woke)
	}
}
