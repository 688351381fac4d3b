package rvcap

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"rvcap/internal/experiments"
	"rvcap/internal/sim"
)

// renderEquivalenceArtifacts regenerates every paper artifact the repo
// produces — Table 1/2/4, the §IV-B reconfiguration times (HWICAP unroll
// sweep and RV-CAP interrupt mode), the Fig. 3 sweep, the scheduling
// sweep, the faults sweep — plus the full VCD trace, filtered image and
// fired-event count of the determinism scenario, all on whichever event
// queue sim.DefaultQueue currently selects, and returns them as
// formatted strings (traces as SHA-256 digests) keyed by artifact name.
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

	vcd, img, events := runTracedScenario(t)
	out["trace-sha256"] = sha256Hex(vcd)
	out["image-sha256"] = sha256Hex(img)
	out["trace-bytes"] = fmt.Sprint(len(vcd))
	out["trace-events"] = fmt.Sprint(events)
	return out
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// goldenArtifacts pins the SHA-256 of every artifact the calendar-queue
// run renders. The legacy-vs-calendar compare only catches a mismatch
// between the two queues; this table catches any behaviour drift across
// commits, in whichever layer it starts.
var goldenArtifacts = map[string]string{
	"faults":         "e485c5e82647d66417eb57245cc224d62c941ced9ab8883424c2e7907e427e87",
	"fig3":           "084a34cbd18c10c33ac70122aab8c2fb544191394a54706ea15bf329cd686324",
	"image-sha256":   "5846b59fb941b5017d567f4b340ff4eeb603c9804072351ccb1c3976b71c61eb",
	"reconfig-times": "b557676921eb5fa07f93076e4de6d1759043b45ff429991693a55dcdb740fdf6",
	"sched":          "bcf0464d6b09c98c41a0afff152e3ec63d8610ee1289c1a7ae974412871b0054",
	"table1":         "334768e331ef3ce11c22ed7c07c9b0eb422f1b791281e0adb59e7a781013fe39",
	"table2":         "c763c41e1e7a2e53d33ff1b241b11909b2fa682b7444a09d22e968f6e2ca8ca0",
	"table4":         "98992449c4f2d5a9bbdb4f7267c45ec3cae62c4f019890a01462b285817abaa6",
	"trace-bytes":    "b76602239e14b0c85b62e4315feda1b78f05b3b0176e50b946fdab8683daf153",
	"trace-events":   "d66b2afdbb248b913f944f47b92b84564d01fce1ec472d8dac109bca8bd4bb67",
	"trace-sha256":   "b55e8eedaca2a41b34aad38b4ef3db3c1fe46b30a1fbb896fbe9fed1bed88fef",
}

// checkGoldenDigests compares the rendered artifacts against
// goldenArtifacts and reports every missing, extra or changed entry,
// followed by the full table as it now stands.
func checkGoldenDigests(t *testing.T, artifacts map[string]string) {
	t.Helper()
	names := make([]string, 0, len(artifacts))
	for name := range artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	var table strings.Builder
	bad := len(artifacts) != len(goldenArtifacts)
	for _, name := range names {
		got := sha256Hex([]byte(artifacts[name]))
		fmt.Fprintf(&table, "\t%q: %q,\n", name, got)
		want, ok := goldenArtifacts[name]
		switch {
		case !ok:
			t.Errorf("%s: no golden digest", name)
			bad = true
		case got != want:
			t.Errorf("%s: digest %s, golden %s", name, got, want)
			bad = true
		}
	}
	if bad {
		t.Errorf("simulated behaviour changed against the golden digests.\n"+
			"A change that alters behaviour on purpose updates goldenArtifacts in\n"+
			"equivalence_test.go and says why in its commit message. Current table:\n%s", table.String())
	}
}

// TestCycleEquivalenceLegacyVsCalendar is the acceptance gate for the
// calendar-queue kernel: every regenerated table, figure, sweep, trace
// hash and event count must be byte-identical between the legacy
// container/heap and the calendar queue. A single displaced event
// anywhere in millions of cycles shows up as a table delta or a
// trace-hash mismatch. The calendar run's artifacts must then also
// match the committed golden digests.
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
	checkGoldenDigests(t, calendar)
}
