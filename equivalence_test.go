package rvcap

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"rvcap/internal/experiments"
	"rvcap/internal/sim"
)

// renderEquivalenceArtifacts regenerates every paper artifact the repo
// produces — Table 1/2/4, the §IV-B reconfiguration times (HWICAP unroll
// sweep and RV-CAP interrupt mode), the Fig. 3 sweep, the scheduling
// sweep, the faults sweep — plus the full VCD trace and filtered image of the
// determinism scenario, all on whichever event queue sim.DefaultQueue
// currently selects, and returns them as formatted strings (traces as
// SHA-256 digests) keyed by artifact name.
func renderEquivalenceArtifacts(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)

	t1, err := experiments.Table1()
	if err != nil {
		t.Fatal(err)
	}
	out["table1"] = t1.String()

	t2, err := experiments.Table2(1)
	if err != nil {
		t.Fatal(err)
	}
	out["table2"] = experiments.FormatTable2(t2)

	t4, err := experiments.Table4(1)
	if err != nil {
		t.Fatal(err)
	}
	out["table4"] = experiments.FormatTable4(t4)

	// Fig. 3 skips the HWICAP rows, so the unroll sweep is the one
	// artifact that drives the keyhole MMIO path at every unroll factor.
	rt, err := experiments.ReconfigTimes(1)
	if err != nil {
		t.Fatal(err)
	}
	out["reconfig-times"] = fmt.Sprintf("%+v", *rt)

	fig3, err := experiments.Fig3(experiments.Fig3Options{SkipHWICAP: true, Unroll: 16, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	out["fig3"] = experiments.FormatFig3(fig3)

	sched, err := experiments.Sched(experiments.SchedOptions{Parallel: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out["sched"] = experiments.FormatSched(sched)

	faults, err := experiments.Faults(experiments.FaultsOptions{Parallel: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out["faults"] = experiments.FormatFaults(faults)

	vcd, img := runTracedScenario(t)
	vh := sha256.Sum256(vcd)
	ih := sha256.Sum256(img)
	out["trace-sha256"] = hex.EncodeToString(vh[:])
	out["image-sha256"] = hex.EncodeToString(ih[:])
	out["trace-bytes"] = fmt.Sprint(len(vcd))
	return out
}

// TestCycleEquivalenceLegacyVsCalendar is the acceptance gate for the
// calendar-queue kernel: every regenerated table, figure, sweep and
// trace hash must be byte-identical between the legacy container/heap
// and the calendar queue. A single displaced event anywhere in millions
// of cycles shows up as a table delta or a trace-hash mismatch.
func TestCycleEquivalenceLegacyVsCalendar(t *testing.T) {
	old := sim.DefaultQueue
	defer func() { sim.DefaultQueue = old }()

	sim.DefaultQueue = sim.LegacyHeap
	legacy := renderEquivalenceArtifacts(t)

	sim.DefaultQueue = sim.CalendarQueue
	calendar := renderEquivalenceArtifacts(t)

	if len(legacy) != len(calendar) {
		t.Fatalf("artifact counts differ: legacy %d, calendar %d", len(legacy), len(calendar))
	}
	for name, want := range legacy {
		got, ok := calendar[name]
		if !ok {
			t.Errorf("%s: missing from calendar run", name)
			continue
		}
		if got != want {
			t.Errorf("%s differs between queues:\n--- legacy ---\n%s\n--- calendar ---\n%s", name, want, got)
		}
	}
}
