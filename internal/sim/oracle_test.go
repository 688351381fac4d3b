package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRunUntilCappedMigrationInvariant pins down the contract of
// position()'s capped exit: RunUntil(limit) that stops between events
// calls setBase(limit), eagerly migrating far events the new window
// covers into ring buckets even though the caller returns false. The
// invariant that makes this safe is that every migrated event fires at
// a cycle >= limit (strictly later than any cycle a smaller subsequent
// limit could ask for), so no later RunUntil with a smaller limit, and
// no Schedule interleaved at the capped cycle, can observe a window
// that skipped past a migrated event.
func TestRunUntilCappedMigrationInvariant(t *testing.T) {
	bothQueues(t, func(t *testing.T, k *Kernel) {
		var got []string
		log := func(tag string) func() {
			return func() { got = append(got, fmt.Sprintf("%s@%d", tag, k.Now())) }
		}
		// Far events just beyond the initial window, including both
		// sides of the base+ringSize boundary.
		k.At(ringSize-1, log("edge-in"))
		k.At(ringSize, log("edge-out"))
		k.At(ringSize+1, log("far-a"))
		k.At(2*ringSize+5, log("far-b"))

		// Capped run that stops between events: for the calendar queue
		// this advances base to the limit and migrates far-a (and
		// edge-out) into ring buckets while returning "nothing fired
		// past the limit".
		k.RunUntil(ringSize - 1)
		if want := []string{fmt.Sprintf("edge-in@%d", ringSize-1)}; len(got) != 1 || got[0] != want[0] {
			t.Fatalf("after capped run got %v, want %v", got, want)
		}

		// A subsequent RunUntil with a *smaller* limit must fire nothing
		// and must not move time backwards.
		k.RunUntil(5)
		if len(got) != 1 {
			t.Fatalf("smaller-limit RunUntil fired extra events: %v", got)
		}
		if k.Now() != ringSize-1 {
			t.Fatalf("Now() = %d after smaller-limit RunUntil, want %d", k.Now(), ringSize-1)
		}

		// An interleaved Schedule at the capped cycle lands before every
		// migrated event.
		k.Schedule(0, log("interleaved"))
		k.Schedule(1, log("interleaved+1"))
		k.Run()
		want := []string{
			fmt.Sprintf("edge-in@%d", ringSize-1),
			fmt.Sprintf("interleaved@%d", ringSize-1),
			fmt.Sprintf("edge-out@%d", ringSize),
			fmt.Sprintf("interleaved+1@%d", ringSize),
			fmt.Sprintf("far-a@%d", ringSize+1),
			fmt.Sprintf("far-b@%d", 2*ringSize+5),
		}
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

// TestRunUntilCappedThenRepeatedCaps walks the window forward through a
// series of capped RunUntil calls whose limits straddle successive
// base+ringSize boundaries, with a pending far event beyond each cap,
// verifying no cap sequence can lose or reorder the migrated events.
func TestRunUntilCappedThenRepeatedCaps(t *testing.T) {
	bothQueues(t, func(t *testing.T, k *Kernel) {
		var fired []Time
		for _, at := range []Time{ringSize + 1, 2 * ringSize, 3*ringSize - 1, 3 * ringSize, 3*ringSize + 1} {
			at := at
			k.At(at, func() { fired = append(fired, at) })
		}
		// Caps chosen to land between events and force migrations.
		for _, cap := range []Time{ringSize - 1, ringSize + 2, 2*ringSize - 1, 2, 2 * ringSize, 4 * ringSize} {
			k.RunUntil(cap)
		}
		want := []Time{ringSize + 1, 2 * ringSize, 3*ringSize - 1, 3 * ringSize, 3*ringSize + 1}
		if len(fired) != len(want) {
			t.Fatalf("fired %v, want %v", fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("fired[%d] = %d, want %d", i, fired[i], want[i])
			}
		}
		if k.Now() != 4*ringSize {
			t.Fatalf("Now() = %d, want %d", k.Now(), 4*ringSize)
		}
	})
}

// oracleRun drives one kernel through a seeded pseudo-random sequence of
// schedule / cascade / halt / RunUntil / Step operations, interleaved
// with processes that sleep, wait on and fire signals, contend for a
// resource, schedule callbacks and halt the kernel. It returns the
// observable trace (firing order with cycles), the final time and the
// fired counter. The op stream is a pure function of the seed, so
// running it once per queue implementation yields directly comparable
// traces. direct counts the process sleeps that advanced time in place
// (calendar queue only); it is not part of the comparison.
func oracleRun(q QueueKind, seed int64) (trace []string, now Time, fired uint64, direct int) {
	k := NewKernel(WithQueue(q))
	rng := rand.New(rand.NewSource(seed))
	id := 0
	// Delay mix biased toward the interesting boundaries: same-cycle
	// cascades (compaction path), window edges base+ringSize±1, and far
	// events that must migrate back.
	delays := []Time{0, 0, 1, 2, 63, 64, ringSize - 1, ringSize, ringSize + 1, 2 * ringSize, 3*ringSize + 7}
	sleeps := []Time{0, 1, 1, 1, ringSize - 1, ringSize + 1, 3*ringSize + 7}
	sigs := []*Signal{NewSignal(k, "a"), NewSignal(k, "b")}
	res := NewResource(k, "r")
	var procs []*Proc
	var schedule func(depth int)
	schedule = func(depth int) {
		n := id
		id++
		d := delays[rng.Intn(len(delays))]
		if rng.Intn(4) == 0 {
			d = Time(rng.Intn(4 * ringSize))
		}
		k.Schedule(d, func() {
			trace = append(trace, fmt.Sprintf("%d@%d", n, k.Now()))
			switch {
			case depth < 3 && rng.Intn(3) == 0:
				// Same-cycle cascade long enough to push the bucket
				// cursor past the pos >= 64 compaction threshold.
				for i := 0; i < 70; i++ {
					m := id
					id++
					k.Schedule(0, func() { trace = append(trace, fmt.Sprintf("%d@%d", m, k.Now())) })
				}
			case depth < 5:
				schedule(depth + 1)
				if rng.Intn(2) == 0 {
					schedule(depth + 1)
				}
			}
			if rng.Intn(8) == 0 {
				sigs[rng.Intn(len(sigs))].Fire()
			}
			if rng.Intn(64) == 0 {
				k.Halt()
			}
		})
	}
	// spawn starts a process running a seeded mix of kernel calls. Runs
	// of sleeps with nothing else pending take the direct-run path on
	// the calendar queue; the same sleeps queued behind other events,
	// dispatched by Step, crossing a RunUntil limit or following a Halt
	// must take the round trip.
	spawn := func() {
		n := id
		id++
		steps := 4 + rng.Intn(12)
		procs = append(procs, k.Go(fmt.Sprintf("p%d", n), func(p *Proc) {
			sleep := func() {
				p.Sleep(sleeps[rng.Intn(len(sleeps))])
				if q == CalendarQueue && sleptInPlace(k) {
					direct++
				}
			}
			for s := 0; s < steps; s++ {
				trace = append(trace, fmt.Sprintf("p%d.%d@%d", n, s, k.Now()))
				switch rng.Intn(8) {
				case 0, 1, 2:
					for j := rng.Intn(8); j >= 0; j-- {
						sleep()
					}
				case 3:
					p.Wait(sigs[rng.Intn(len(sigs))])
				case 4:
					sigs[rng.Intn(len(sigs))].Fire()
					sleep()
				case 5:
					res.Acquire(p)
					trace = append(trace, fmt.Sprintf("p%d.acq@%d", n, k.Now()))
					sleep()
					res.Release()
				case 6:
					schedule(3)
					sleep()
				case 7:
					if rng.Intn(4) == 0 {
						k.Halt()
					}
					sleep()
				}
			}
			trace = append(trace, fmt.Sprintf("p%d.end@%d", n, k.Now()))
		}))
	}
	for round := 0; round < 40; round++ {
		for i := 0; i < 4; i++ {
			schedule(0)
		}
		if rng.Intn(2) == 0 {
			spawn()
		}
		switch rng.Intn(5) {
		case 0:
			// Capped run landing between events, often straddling a
			// window boundary — exercises the eager-migration exit.
			k.RunUntil(k.Now() + Time(rng.Intn(2*ringSize)))
		case 1:
			// Smaller-or-equal limit: must be a no-op for past cycles.
			limit := Time(rng.Intn(int(k.Now()) + 1))
			k.RunUntil(limit)
		case 2:
			for i := 0; i < rng.Intn(8); i++ {
				k.Step()
			}
		case 3:
			k.RunUntil(k.Now() + ringSize + Time(rng.Intn(3)) - 1)
		case 4:
			k.RunUntil(k.Now())
		}
	}
	k.Run()
	// A Halt fired by the final Run leaves events pending, and a process
	// may still be parked on a signal nothing fires any more; drain both
	// so the queues account for every scheduled event.
	for {
		for k.Pending() > 0 {
			k.Run()
		}
		parked := false
		for _, p := range procs {
			parked = parked || !p.Done()
		}
		if !parked {
			break
		}
		for _, s := range sigs {
			s.Fire()
		}
	}
	return trace, k.Now(), k.Events(), direct
}

// TestCalendarFuzzOracleMatchesLegacy is the randomized equivalence
// oracle: identical seeded schedule/halt/RunUntil/Step sequences, with
// processes sleeping, waiting, firing and contending among them, through
// the calendar queue and the legacy heap must produce identical fire
// order, identical final time, and identical fired counts — including
// the same-cycle cascade compaction path, far-heap migrations at the
// base+ringSize±1 boundaries, and direct-run sleeps, which only the
// calendar queue takes.
func TestCalendarFuzzOracleMatchesLegacy(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ct, cn, cf, direct := oracleRun(CalendarQueue, seed)
			lt, ln, lf, _ := oracleRun(LegacyHeap, seed)
			if len(ct) != len(lt) {
				t.Fatalf("trace lengths differ: calendar %d, legacy %d", len(ct), len(lt))
			}
			for i := range ct {
				if ct[i] != lt[i] {
					t.Fatalf("trace[%d] differs: calendar %q, legacy %q", i, ct[i], lt[i])
				}
			}
			if cn != ln {
				t.Fatalf("final Now differs: calendar %d, legacy %d", cn, ln)
			}
			if cf != lf {
				t.Fatalf("fired counts differ: calendar %d, legacy %d", cf, lf)
			}
			if len(ct) < 200 {
				t.Fatalf("oracle run too small to be meaningful: %d events", len(ct))
			}
			if direct == 0 {
				t.Fatal("no process sleep took the direct-run path")
			}
		})
	}
}
