package bitstream

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"rvcap/internal/fpga"
)

// colShift returns a FAR rewriter moving every address delta columns to
// the right (the two test partitions sit on identical CLB column runs,
// so a pure column shift is a valid relocation).
func colShift(dev *fpga.Device, delta int) func(uint32) (uint32, error) {
	return func(far uint32) (uint32, error) {
		row, col, minor := dev.UnpackFAR(far)
		if _, err := dev.FrameIndex(row, col+delta, minor); err != nil {
			return 0, err
		}
		return dev.PackFAR(row, col+delta, minor), nil
	}
}

// relocSetup builds a fabric with two same-shape CLB partitions two
// columns apart and a module image compiled for the first.
func relocSetup(t *testing.T) (*fpga.Fabric, *fpga.Partition, *fpga.Partition, *Image) {
	t.Helper()
	fab := fpga.NewFabric(fpga.NewKintex7())
	src, err := fpga.NewSpanPartition(fab, "SRC", 0, 0, 0, 1, fpga.Resources{})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := fpga.NewSpanPartition(fab, "DST", 0, 0, 2, 3, fpga.Resources{})
	if err != nil {
		t.Fatal(err)
	}
	im, err := Partial(fab.Dev, src, "sobel", Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fab, src, dst, im
}

func TestRelocateRoundTrip(t *testing.T) {
	fab, src, dst, im := relocSetup(t)
	dev := fab.Dev

	shifted, err := Relocate(nil, im.Words, colShift(dev, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(shifted) != len(im.Words) {
		t.Fatalf("relocation changed stream length: %d -> %d", len(im.Words), len(shifted))
	}

	// The shifted stream parses clean and seeks to the target runs.
	orig, err := Parse(im.Words)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if !s.CRCValid || !s.Desynced {
		t.Fatalf("relocated stream: CRCValid=%v Desynced=%v", s.CRCValid, s.Desynced)
	}
	var wantFARs []uint32
	for _, run := range dst.Runs() {
		far, err := dev.IndexToFAR(run[0])
		if err != nil {
			t.Fatal(err)
		}
		wantFARs = append(wantFARs, far)
	}
	if len(s.FARWrites) != len(wantFARs) {
		t.Fatalf("FARWrites = %v, want %v", s.FARWrites, wantFARs)
	}
	for i := range wantFARs {
		if s.FARWrites[i] != wantFARs[i] {
			t.Fatalf("FARWrites[%d] = %#08x, want %#08x", i, s.FARWrites[i], wantFARs[i])
		}
	}
	// The FDRI payload — logic frames and per-run trailing pad frames —
	// is untouched: word counts match and the inverse shift restores the
	// original stream byte-for-byte (CRC re-sealing included).
	if s.FrameDataWords != orig.FrameDataWords {
		t.Fatalf("FrameDataWords = %d, want %d", s.FrameDataWords, orig.FrameDataWords)
	}
	wantPayload := (src.NumFrames() + len(src.Runs())) * fpga.FrameWords
	if s.FrameDataWords != wantPayload {
		t.Fatalf("FrameDataWords = %d, want %d (frames + pad per run)", s.FrameDataWords, wantPayload)
	}
	back, err := Relocate(nil, shifted, colShift(dev, -2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range im.Words {
		if back[i] != im.Words[i] {
			t.Fatalf("round trip diverges at word %d: %#08x != %#08x", i, back[i], im.Words[i])
		}
	}
	// And the shifted stream is genuinely different (the FARs moved).
	same := true
	for i := range im.Words {
		if shifted[i] != im.Words[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("relocated stream identical to original")
	}
}

func TestRelocatedLoadWritesShiftedFrames(t *testing.T) {
	fab, src, dst, im := relocSetup(t)
	dev := fab.Dev

	// Direct load into SRC on one fabric...
	ic := fpga.NewICAP(fab)
	for _, w := range im.Words {
		ic.WriteWord(w)
	}
	if ic.Err() != nil {
		t.Fatal(ic.Err())
	}
	// ...relocated load into DST on a second, pristine fabric.
	fab2 := fpga.NewFabric(fpga.NewKintex7())
	dst2, err := fpga.NewSpanPartition(fab2, "DST", 0, 0, 2, 3, fpga.Resources{})
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := Relocate(nil, im.Words, colShift(dev, 2))
	if err != nil {
		t.Fatal(err)
	}
	ic2 := fpga.NewICAP(fab2)
	for _, w := range shifted {
		ic2.WriteWord(w)
	}
	if ic2.Err() != nil {
		t.Fatal(ic2.Err())
	}
	if got := ic2.PartitionFrameWrites(dst2); got != uint64(dst2.NumFrames()) {
		t.Fatalf("relocated load wrote %d frames into DST, want %d", got, dst2.NumFrames())
	}
	if ic2.StaticFrameWrites() != 0 {
		t.Fatalf("relocated load touched %d static frames", ic2.StaticFrameWrites())
	}
	// Byte-identical frame contents at the shifted addresses.
	sf, df := src.Frames(), dst2.Frames()
	for i := range sf {
		a, err := fab.Mem.ReadFrame(sf[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := fab2.Mem.ReadFrame(df[i])
		if err != nil {
			t.Fatal(err)
		}
		for w := range a {
			if a[w] != b[w] {
				t.Fatalf("frame %d word %d differs: %#08x != %#08x", i, w, a[w], b[w])
			}
		}
	}
	// Same contents in frame order = same signature: registering the
	// source image's signature makes the relocated load activate the
	// module in the destination partition.
	if got := fab2.Signature(dst2); got != im.Signature {
		t.Fatalf("relocated signature %#x, want %#x", got, im.Signature)
	}
	_ = dst
}

func TestRelocateSkipCRC(t *testing.T) {
	fab, src, _, _ := relocSetup(t)
	im, err := Partial(fab.Dev, src, "median", Options{SkipCRC: true})
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := Relocate(nil, im.Words, colShift(fab.Dev, 2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.CRCWords) != 0 {
		t.Fatalf("SkipCRC stream grew %d CRC words", len(s.CRCWords))
	}
	if !s.Desynced {
		t.Fatal("relocated SkipCRC stream lost its DESYNC")
	}
}

func TestRelocateRejectsCorruptInput(t *testing.T) {
	fab, _, _, im := relocSetup(t)
	dev := fab.Dev
	shift := colShift(dev, 2)

	// A bit flip in the FDRI payload breaks the embedded CRC: the
	// relocator must refuse rather than re-seal the damage.
	flipped, err := BytesToWords(FlipBit(im.Bytes(), (len(im.Words)/2)*32+5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Relocate(nil, flipped, shift); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped stream: err = %v, want ErrCorrupt", err)
	}

	// A truncated stream dies on the unfinished payload.
	cut, err := BytesToWords(Truncate(im.Bytes(), len(im.Bytes())/2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Relocate(nil, cut, shift); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated stream: err = %v, want ErrCorrupt", err)
	}

	// No sync word at all.
	if _, err := Relocate(nil, []uint32{fpga.DummyWord, fpga.NoopWord}, shift); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("syncless stream: err = %v, want ErrCorrupt", err)
	}

	// A shift that walks off the device surfaces the shift error.
	if _, err := Relocate(nil, im.Words, colShift(dev, 10_000)); err == nil {
		t.Fatal("off-device shift accepted")
	}
}

func TestRelocateAppendsToDst(t *testing.T) {
	fab, _, _, im := relocSetup(t)
	want, err := Relocate(nil, im.Words, colShift(fab.Dev, 2))
	if err != nil {
		t.Fatal(err)
	}
	prefix := []uint32{1, 2, 3}
	got, err := Relocate(append(make([]uint32, 0, len(im.Words)+3), prefix...), im.Words, colShift(fab.Dev, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(prefix)+len(want) {
		t.Fatalf("appended %d words, want %d", len(got)-len(prefix), len(want))
	}
	for i, w := range prefix {
		if got[i] != w {
			t.Fatalf("prefix word %d overwritten: %#x", i, got[i])
		}
	}
	for i, w := range want {
		if got[len(prefix)+i] != w {
			t.Fatalf("word %d: %#08x, want %#08x", i, got[len(prefix)+i], w)
		}
	}
}

// referenceRelocate is the word-by-word relocator Relocate replaced: one
// UpdateCRC call per word and stream. FuzzRelocate holds the batched
// fold to it.
func referenceRelocate(words []uint32, shift func(far uint32) (uint32, error)) ([]uint32, error) {
	out := make([]uint32, 0, len(words))
	i := 0
	synced := false
	for ; i < len(words); i++ {
		out = append(out, words[i])
		if words[i] == fpga.SyncWord {
			synced = true
			i++
			break
		}
	}
	if !synced {
		return nil, fmt.Errorf("%w: no sync word in %d-word stream", ErrCorrupt, len(words))
	}
	var origCRC, outCRC uint32
	var lastReg, lastOp uint32
	desynced := false
	consume := func(reg uint32, count int) error {
		if i+count > len(words) {
			return fmt.Errorf("%w: truncated payload for reg %#x at word %d", ErrCorrupt, reg, i)
		}
		for n := 0; n < count; n++ {
			w := words[i]
			i++
			switch reg {
			case fpga.RegCRC:
				if w != origCRC {
					return fmt.Errorf("%w: embedded CRC %#08x does not match contents (%#08x)",
						ErrCorrupt, w, origCRC)
				}
				out = append(out, outCRC)
				origCRC, outCRC = 0, 0
				continue
			case fpga.RegFAR:
				nw, err := shift(w)
				if err != nil {
					return fmt.Errorf("bitstream: relocating FAR %#08x: %v", w, err)
				}
				out = append(out, nw)
				origCRC = fpga.UpdateCRC(origCRC, reg, w)
				outCRC = fpga.UpdateCRC(outCRC, reg, nw)
				continue
			case fpga.RegCMD:
				out = append(out, w)
				origCRC = fpga.UpdateCRC(origCRC, reg, w)
				outCRC = fpga.UpdateCRC(outCRC, reg, w)
				if w&0x1F == fpga.CmdRCRC {
					origCRC, outCRC = 0, 0
				}
				if w&0x1F == fpga.CmdDesync {
					desynced = true
				}
				continue
			}
			out = append(out, w)
			origCRC = fpga.UpdateCRC(origCRC, reg, w)
			outCRC = fpga.UpdateCRC(outCRC, reg, w)
		}
		return nil
	}
	for i < len(words) {
		if desynced {
			out = append(out, words[i])
			i++
			continue
		}
		h := words[i]
		i++
		out = append(out, h)
		switch h >> 29 {
		case 1:
			reg := h >> 13 & 0x3FFF
			op := h >> 27 & 0x3
			lastReg, lastOp = reg, op
			if op == 2 {
				if err := consume(reg, int(h&0x7FF)); err != nil {
					return nil, err
				}
			}
		case 2:
			if lastOp == 1 {
				continue
			}
			if err := consume(lastReg, int(h&0x7FFFFFF)); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: bad packet header %#08x at word %d", ErrCorrupt, h, i-1)
		}
	}
	if !desynced {
		return nil, fmt.Errorf("%w: stream does not end with DESYNC", ErrCorrupt)
	}
	return out, nil
}

// fuzzShift moves a FAR's column field by delta modulo its 10-bit width
// and keeps every other bit, so it is a bijection on all 32-bit words
// and fuzzShift(-delta) undoes it. It refuses row field 31, which no
// modelled device has, so the shift-error path is exercised too.
func fuzzShift(delta int) func(uint32) (uint32, error) {
	return func(far uint32) (uint32, error) {
		if far>>18&0x1F == 0x1F {
			return 0, fmt.Errorf("row 31 is off the device")
		}
		col := (int(far>>8&0x3FF) + delta) & 0x3FF
		return far&^(0x3FF<<8) | uint32(col)<<8, nil
	}
}

// FuzzRelocate holds Relocate to the word-by-word reference on arbitrary
// streams (the seed corpus under testdata/fuzz/FuzzRelocate holds a
// partial image, a blanking image, a bit-flipped and a truncated copy):
// no panic, the same words and the same refusal, and a relocation
// followed by its inverse restores the input.
func FuzzRelocate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, delta int) {
		words, err := BytesToWords(data[:len(data)&^3])
		if err != nil {
			t.Fatal(err)
		}
		shift := fuzzShift(delta)
		got, err := Relocate(nil, words, shift)
		want, refErr := referenceRelocate(words, shift)
		if (err == nil) != (refErr == nil) || errors.Is(err, ErrCorrupt) != errors.Is(refErr, ErrCorrupt) {
			t.Fatalf("Relocate err = %v, reference err = %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Relocate and reference disagree (%d vs %d words)", len(got), len(want))
		}
		back, err := Relocate(nil, got, fuzzShift(-delta))
		if err != nil {
			t.Fatalf("inverse relocation refused: %v", err)
		}
		if !slices.Equal(back, words) {
			t.Fatal("relocation followed by its inverse does not restore the input")
		}
	})
}

func BenchmarkRelocate(b *testing.B) {
	fab := fpga.NewFabric(fpga.NewKintex7())
	src, err := fpga.NewSpanPartition(fab, "SRC", 0, 0, 0, 3, fpga.Resources{})
	if err != nil {
		b.Fatal(err)
	}
	im, err := Partial(fab.Dev, src, "gaussian", Options{})
	if err != nil {
		b.Fatal(err)
	}
	shift := colShift(fab.Dev, 7)
	var out []uint32
	b.SetBytes(int64(im.SizeBytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out, err = Relocate(out[:0], im.Words, shift); err != nil {
			b.Fatal(err)
		}
	}
}
