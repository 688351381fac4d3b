package sim

import "testing"

// benchQueues runs a benchmark once per queue implementation so the
// calendar-vs-legacy cost of each kernel primitive is directly visible
// in one `go test -bench` run.
func benchQueues(b *testing.B, fn func(b *testing.B, q QueueKind)) {
	b.Run("calendar", func(b *testing.B) { fn(b, CalendarQueue) })
	b.Run("legacy", func(b *testing.B) { fn(b, LegacyHeap) })
}

// BenchmarkScheduleFire measures the raw schedule+dispatch cost of
// same-cycle callback events — the dominant traffic class (signal wakes,
// zero-delay handoffs).
func BenchmarkScheduleFire(b *testing.B) {
	benchQueues(b, func(b *testing.B, q QueueKind) {
		k := NewKernel(WithQueue(q))
		n := 0
		var fn func()
		fn = func() {
			n++
			if n < b.N {
				k.Schedule(0, fn)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		k.Schedule(0, fn)
		k.Run()
		if n != b.N {
			b.Fatalf("fired %d, want %d", n, b.N)
		}
	})
}

// BenchmarkScheduleFireDelayed measures small in-window delays (stream
// pacing, bus latencies).
func BenchmarkScheduleFireDelayed(b *testing.B) {
	benchQueues(b, func(b *testing.B, q QueueKind) {
		k := NewKernel(WithQueue(q))
		n := 0
		var fn func()
		fn = func() {
			n++
			if n < b.N {
				k.Schedule(Time(n%7+1), fn)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		k.Schedule(1, fn)
		k.Run()
	})
}

// BenchmarkScheduleFireFar measures beyond-window delays that take the
// far-heap path and migrate back into the ring.
func BenchmarkScheduleFireFar(b *testing.B) {
	benchQueues(b, func(b *testing.B, q QueueKind) {
		k := NewKernel(WithQueue(q))
		n := 0
		var fn func()
		fn = func() {
			n++
			if n < b.N {
				k.Schedule(4*ringSize, fn)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		k.Schedule(4*ringSize, fn)
		k.Run()
	})
}

// BenchmarkProcSleep measures a lone sleeper. Nothing else is ever
// pending, so on the calendar queue every sleep takes the direct-run
// path and advances time in place; the legacy heap pays the full
// pause/dispatch round trip.
func BenchmarkProcSleep(b *testing.B) {
	benchQueues(b, func(b *testing.B, q QueueKind) {
		k := NewKernel(WithQueue(q))
		b.ReportAllocs()
		b.ResetTimer()
		k.Go("sleeper", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(1)
			}
		})
		k.Run()
	})
}

// BenchmarkProcSleepContended measures the pause/dispatch round trip
// that BenchmarkProcSleep no longer reaches: two sleepers one cycle
// apart always have the other's wake pending before their own, so every
// sleep but the last yields and is re-dispatched from the queue.
func BenchmarkProcSleepContended(b *testing.B) {
	benchQueues(b, func(b *testing.B, q QueueKind) {
		k := NewKernel(WithQueue(q))
		b.ReportAllocs()
		b.ResetTimer()
		for w := 0; w < 2; w++ {
			k.Go("sleeper", func(p *Proc) {
				p.Sleep(Time(w))
				for i := 0; i < b.N/2; i++ {
					p.Sleep(2)
				}
			})
		}
		k.Run()
	})
}

// BenchmarkSignalPingPong measures two processes alternating over a pair
// of signals: the Wait/Fire wake path.
func BenchmarkSignalPingPong(b *testing.B) {
	benchQueues(b, func(b *testing.B, q QueueKind) {
		k := NewKernel(WithQueue(q))
		ping := NewSignal(k, "ping")
		pong := NewSignal(k, "pong")
		b.ReportAllocs()
		b.ResetTimer()
		// The echoer starts first so it is already waiting when the
		// driver's first Fire lands.
		k.Go("echo", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Wait(ping)
				pong.Fire()
			}
		})
		k.Go("drive", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				ping.Fire()
				p.Wait(pong)
			}
		})
		k.Run()
	})
}

// BenchmarkResourceContention measures FIFO resource hand-over between
// two contending processes.
func BenchmarkResourceContention(b *testing.B) {
	benchQueues(b, func(b *testing.B, q QueueKind) {
		k := NewKernel(WithQueue(q))
		r := NewResource(k, "ddr")
		b.ReportAllocs()
		b.ResetTimer()
		for w := 0; w < 2; w++ {
			k.Go("w", func(p *Proc) {
				for i := 0; i < b.N/2; i++ {
					r.Acquire(p)
					p.Sleep(1)
					r.Release()
				}
			})
		}
		k.Run()
	})
}
