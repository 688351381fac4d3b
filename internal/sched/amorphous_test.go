package sched

import (
	"reflect"
	"strings"
	"testing"
)

// TestAmorphousRunCompletes runs a light amorphous scenario end to end:
// every job completes, the report carries the placement gauges, and the
// gauges are internally consistent.
func TestAmorphousRunCompletes(t *testing.T) {
	rep, err := Run(Config{Amorphous: true, RPs: 2, Jobs: 30, Seed: 1, Load: 0.8, Policy: Affinity})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Amorphous {
		t.Fatal("report not flagged amorphous")
	}
	if rep.PlacePolicy != "first-fit" {
		t.Fatalf("default place policy = %q, want first-fit", rep.PlacePolicy)
	}
	if rep.Placements == 0 {
		t.Fatal("no placements recorded")
	}
	if rep.Placements < rep.RPs {
		t.Fatalf("placements = %d, want at least one per slot (%d)", rep.Placements, rep.RPs)
	}
	if rep.Reconfigs == 0 || rep.ResidentHits == 0 {
		t.Fatalf("reconfigs = %d, resident hits = %d: amorphous mode should mix loads and reuse",
			rep.Reconfigs, rep.ResidentHits)
	}
	if rep.MeanFragPct < 0 || rep.MeanFragPct > 100 {
		t.Fatalf("mean frag = %.1f%% outside [0,100]", rep.MeanFragPct)
	}
	if len(rep.PerRP) != 2 {
		t.Fatalf("per-RP stats for %d slots, want 2", len(rep.PerRP))
	}
	for _, st := range rep.PerRP {
		if !strings.HasPrefix(st.Name, "SRP") {
			t.Fatalf("slot name %q, want SRP prefix", st.Name)
		}
	}
	if !strings.Contains(rep.String(), "placement: policy=first-fit") {
		t.Fatalf("summary misses placement line:\n%s", rep.String())
	}
}

// TestAmorphousForcesDefrag pins a scenario (found by seed scan) where
// the window fills, placements fail, the dispatcher defragments and
// relocates idle regions, and at least one job has to wait for a busy
// slot to drain. The defrag passes must measurably lower the external
// fragmentation gauge.
func TestAmorphousForcesDefrag(t *testing.T) {
	rep, err := Run(Config{Amorphous: true, RPs: 3, Jobs: 30, Seed: 1, Load: 0.8, Policy: Affinity})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedPlacements == 0 {
		t.Fatal("scenario never failed a placement; it should stress the window")
	}
	if rep.Defrags == 0 {
		t.Fatal("no defrag pass ran")
	}
	if rep.Relocations == 0 || rep.FramesMoved == 0 {
		t.Fatalf("relocations = %d, frames moved = %d: defrag should have moved a region",
			rep.Relocations, rep.FramesMoved)
	}
	if rep.PlaceWaits == 0 {
		t.Fatal("no dispatch waited for a busy slot")
	}
	if rep.DefragFragBeforePct <= rep.DefragFragAfterPct {
		t.Fatalf("defrag did not lower fragmentation: before %.1f%% after %.1f%%",
			rep.DefragFragBeforePct, rep.DefragFragAfterPct)
	}
}

// TestAmorphousDeterministic replays the defrag-heavy scenario and
// requires a byte-identical report: placement, relocation and defrag
// decisions must all be reproducible.
func TestAmorphousDeterministic(t *testing.T) {
	cfg := Config{Amorphous: true, RPs: 3, Jobs: 30, Seed: 1, Load: 0.8, Policy: Affinity}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("amorphous reports differ across identical runs:\n%v\nvs\n%v", a, b)
	}
}

// TestFixedModeReportUnchanged checks the fixed-partition path does not
// leak amorphous gauges into its report.
func TestFixedModeReportUnchanged(t *testing.T) {
	rep, err := Run(Config{RPs: 2, Jobs: 12, Seed: 3, Policy: Affinity})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Amorphous || rep.PlacePolicy != "" || rep.Placements != 0 ||
		rep.Defrags != 0 || rep.PlaceWaits != 0 || rep.MeanFragPct != 0 {
		t.Fatalf("fixed-mode report carries amorphous gauges: %+v", rep)
	}
	if strings.Contains(rep.String(), "placement:") {
		t.Fatalf("fixed-mode summary has placement line:\n%s", rep.String())
	}
}

// TestAmorphousValidatesSlots checks the amorphous slot bound replaces
// the fixed-partition column-pair bound.
func TestAmorphousValidatesSlots(t *testing.T) {
	if _, err := NewBoard("b", Config{Amorphous: true, RPs: 7, Jobs: 1}); err == nil {
		t.Fatal("7 amorphous slots accepted; window fits at most 6")
	}
	if _, err := NewBoard("b", Config{Amorphous: true, RPs: 6, Jobs: 1}); err != nil {
		t.Fatalf("6 amorphous slots rejected: %v", err)
	}
}

// TestAmorphousFaultsHeal sweeps fault rates and seeds on amorphous
// boards. A DMA load whose DESYNC was lost leaves the ICAP synced; the
// next defrag or blanking load writes straight into the port, so it must
// heal the engine first instead of being parsed mid-packet as garbage.
func TestAmorphousFaultsHeal(t *testing.T) {
	for _, rate := range []float64{0.01, 0.02, 0.05, 0.1} {
		for seed := int64(1); seed <= 5; seed++ {
			rep, err := Run(Config{Amorphous: true, RPs: 3, Jobs: 200, Seed: seed, Load: 0.8,
				Policy: Affinity, FaultRate: rate})
			if err != nil {
				t.Fatalf("rate %v seed %d: %v", rate, seed, err)
			}
			if rep.Jobs != 200 {
				t.Fatalf("rate %v seed %d: %d jobs reported, want 200", rate, seed, rep.Jobs)
			}
		}
	}
}
