package sched

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
)

// streamBoard and streamWorkload are the steady-state streaming board
// of BENCH_9: two partitions, an eight-slot bitstream cache, 60 % load
// and 45 % module locality.
func streamBoard(t *testing.T) *Board {
	t.Helper()
	b, err := NewBoard("B0", Config{RPs: 2, CacheSlots: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func streamWorkload(jobs int) Workload {
	return Workload{Seed: 11, Jobs: jobs, Load: 0.60, RPs: 2, Locality: 0.45}
}

// runStream plays a fresh stream of the given length through b.
func runStream(t *testing.T, b *Board, jobs int) *Report {
	t.Helper()
	src, err := streamWorkload(jobs).Stream()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.RunStream(src)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func marshalReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestRunStreamMatchesRunAndReplays holds the bounded-memory path to the
// materialised one: streaming a workload, with its job records recycled,
// must report exactly what running the generated slice reports, and a
// second stream of the same workload must replay it byte for byte.
func TestRunStreamMatchesRunAndReplays(t *testing.T) {
	const jobs = 1000
	b := streamBoard(t)
	stream := marshalReport(t, runStream(t, b, jobs))

	generated, err := streamWorkload(jobs).Generate()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run(generated)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != jobs {
		t.Fatalf("Run completed %d jobs, want %d", rep.Jobs, jobs)
	}
	if slice := marshalReport(t, rep); !bytes.Equal(stream, slice) {
		t.Errorf("RunStream report differs from Run:\nstream: %s\nslice:  %s", stream, slice)
	}
	if replay := marshalReport(t, runStream(t, b, jobs)); !bytes.Equal(stream, replay) {
		t.Errorf("RunStream replay differs:\nfirst:  %s\nreplay: %s", stream, replay)
	}
}

// TestRunStreamBoundedAllocs checks that a streamed job costs no heap
// allocations once the board is built: the malloc count of a 5,000-job
// stream may exceed that of a 500-job stream by at most 0.1 per extra
// job. The per-run setup (kernel, SoC, bitstreams) cancels out of the
// difference.
func TestRunStreamBoundedAllocs(t *testing.T) {
	b := streamBoard(t)
	mallocs := func(jobs int) uint64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runStream(t, b, jobs)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	const small, large = 500, 5000
	mallocs(small) // warm package-level state (interned modules, pools)
	lo, hi := mallocs(small), mallocs(large)
	perJob := (float64(hi) - float64(lo)) / (large - small)
	t.Logf("mallocs: %d at %d jobs, %d at %d jobs, %.4f marginal per job", lo, small, hi, large, perJob)
	if perJob > 0.1 {
		t.Errorf("marginal mallocs per streamed job = %.4f, want <= 0.1", perJob)
	}
}
