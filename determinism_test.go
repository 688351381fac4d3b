package rvcap

import (
	"bytes"
	"testing"

	"rvcap/internal/trace"
)

// runTracedScenario executes a full reconfiguration-plus-workload
// scenario with a VCD probe attached and returns the complete trace,
// the filtered image bytes and the number of events the kernel fired. Two invocations must produce
// byte-identical traces: the simulator guarantees cycle-level
// reproducibility (see DESIGN.md "Simulation coding rules"), and this
// test is the enforcement for the parts rvcap-lint cannot prove
// statically.
func runTracedScenario(t *testing.T) ([]byte, []byte, uint64) {
	t.Helper()
	sys, err := New(WithUnpaddedBitstreams())
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(sys.HW().K)
	trace.Probe(sys.HW(), rec, 500)

	sobel, err := sys.DefineFilterModule(Sobel)
	if err != nil {
		t.Fatal(err)
	}
	median, err := sys.DefineFilterModule(Median)
	if err != nil {
		t.Fatal(err)
	}

	var out *Image
	err = sys.Run(func(s *Session) error {
		if _, err := s.Reconfigure(sobel); err != nil {
			return err
		}
		var err error
		out, _, err = s.FilterImage(TestPattern(512, 512))
		if err != nil {
			return err
		}
		if _, err := s.ReconfigureHWICAP(median, 16); err != nil {
			return err
		}
		_, _, err = s.FilterImage(TestPattern(512, 512))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	var vcd bytes.Buffer
	if err := rec.WriteVCD(&vcd); err != nil {
		t.Fatal(err)
	}
	return vcd.Bytes(), append([]byte(nil), out.Pix...), sys.HW().K.Events()
}

// TestRepeatedRunDeterminism runs the identical scenario twice in fresh
// systems and requires the full signal traces — every sampled DMA, ICAP
// and interrupt transition across hundreds of thousands of cycles — to
// match byte for byte. Any wall-clock dependence, map-iteration leak or
// scheduling race would desynchronize the traces long before it
// corrupted a final image, so this is the most sensitive determinism
// check the repo has.
func TestRepeatedRunDeterminism(t *testing.T) {
	vcd1, img1, _ := runTracedScenario(t)
	vcd2, img2, _ := runTracedScenario(t)

	if !bytes.Equal(img1, img2) {
		t.Error("filtered image differs between identical runs")
	}
	if !bytes.Equal(vcd1, vcd2) {
		if len(vcd1) != len(vcd2) {
			t.Fatalf("trace length differs between identical runs: %d vs %d bytes", len(vcd1), len(vcd2))
		}
		for i := range vcd1 {
			if vcd1[i] != vcd2[i] {
				lo := i - 40
				if lo < 0 {
					lo = 0
				}
				hi := i + 40
				if hi > len(vcd1) {
					hi = len(vcd1)
				}
				t.Fatalf("traces diverge at byte %d:\nrun1: %q\nrun2: %q", i, vcd1[lo:hi], vcd2[lo:hi])
			}
		}
	}
	if len(vcd1) == 0 {
		t.Fatal("empty trace: probe did not record anything")
	}
}
