package bitstream

import (
	"encoding/binary"
	"fmt"
	"slices"

	"rvcap/internal/fpga"
)

// Relocation: a partial bitstream compiled for one region is retargeted
// to another by rewriting only its FAR packets — the FDRI frame
// payloads are copied bit-for-bit, so a relocated load realises exactly
// the compiled logic at the shifted addresses. Because the 7-series
// configuration CRC covers the FAR writes, every embedded CRC check
// word is recomputed for the shifted stream; the original stream's CRC
// is verified on the way through, so a corrupted image is refused
// rather than silently re-sealed with a fresh checksum.

// ErrCorrupt marks a stream Relocate refused: malformed packets,
// truncated payloads, or an embedded CRC that does not match the
// original stream's contents.
var ErrCorrupt = fmt.Errorf("bitstream: refusing to relocate corrupt stream")

// Relocate rewrites every FAR write of a configuration word stream
// through shift and re-seals the embedded CRC check words, appending
// the relocated stream to dst (which may be nil) and returning the
// extended slice. All other words — preamble, commands, FDRI frame
// payloads including the trailing pad frames, NOP padding and the
// post-DESYNC trailer — are copied verbatim. The input is never
// modified, and must not overlap dst's spare capacity. On error dst is
// returned as passed.
func Relocate(dst, words []uint32, shift func(far uint32) (uint32, error)) ([]uint32, error) {
	// The relocated stream is exactly as long as the input.
	rl := relocator{out: slices.Grow(dst, len(words)), in: words, shift: shift}
	if err := rl.run(); err != nil {
		return dst, err
	}
	return rl.out, nil
}

// relocator is one Relocate pass. origCRC runs over the incoming words,
// outCRC over the shifted ones; they diverge at the first relocated FAR
// and re-converge to zero at every check word. Both streams carry the
// same (reg, word) bytes everywhere except at moved FARs, so those
// bytes collect in pend, about a frame at a time, and each run is
// folded into both CRCs with one batched call apiece. The run is
// flushed before every check word and every moved FAR.
type relocator struct {
	out, in []uint32
	i       int
	shift   func(far uint32) (uint32, error)

	origCRC, outCRC uint32
	pend            []byte

	lastReg, lastOp uint32
	desynced        bool
}

func (rl *relocator) run() error {
	in := rl.in
	for rl.i < len(in) && in[rl.i] != fpga.SyncWord {
		rl.i++
	}
	if rl.i == len(in) {
		return fmt.Errorf("%w: no sync word in %d-word stream", ErrCorrupt, len(in))
	}
	rl.i++
	rl.out = append(rl.out, in[:rl.i]...)
	rl.pend = make([]byte, 0, fpga.CRCRunBytes)
	for rl.i < len(in) {
		if rl.desynced {
			// Post-desync trailer: copied verbatim.
			rl.out = append(rl.out, in[rl.i:]...)
			return nil
		}
		h := in[rl.i]
		rl.i++
		rl.out = append(rl.out, h)
		switch h >> 29 {
		case 1:
			reg := h >> 13 & 0x3FFF
			op := h >> 27 & 0x3
			rl.lastReg, rl.lastOp = reg, op
			if op == 2 {
				if err := rl.consume(reg, int(h&0x7FF)); err != nil {
					return err
				}
			}
		case 2:
			if rl.lastOp == 1 {
				continue // readback request: no payload in the stream
			}
			if err := rl.consume(rl.lastReg, int(h&0x7FFFFFF)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: bad packet header %#08x at word %d", ErrCorrupt, h, rl.i-1)
		}
	}
	if !rl.desynced {
		return fmt.Errorf("%w: stream does not end with DESYNC", ErrCorrupt)
	}
	return nil
}

// consume relocates one packet payload of count words written to reg.
//
//lint:hot
func (rl *relocator) consume(reg uint32, count int) error {
	if rl.i+count > len(rl.in) {
		return fmt.Errorf("%w: truncated payload for reg %#x at word %d", ErrCorrupt, reg, rl.i)
	}
	payload := rl.in[rl.i : rl.i+count]
	rl.i += count
	switch reg {
	case fpga.RegCRC, fpga.RegFAR, fpga.RegCMD:
	default:
		// Frame data and every other register: copied, folded into both
		// CRCs through the shared run.
		rl.out = append(rl.out, payload...)
		rl.foldRun(reg, payload)
		return nil
	}
	for i, w := range payload {
		switch reg {
		case fpga.RegCRC:
			rl.flush()
			if w != rl.origCRC {
				return fmt.Errorf("%w: embedded CRC %#08x does not match contents (%#08x)",
					ErrCorrupt, w, rl.origCRC)
			}
			rl.out = append(rl.out, rl.outCRC)
			rl.origCRC, rl.outCRC = 0, 0
		case fpga.RegFAR:
			nw, err := rl.shift(w)
			if err != nil {
				return fmt.Errorf("bitstream: relocating FAR %#08x: %v", w, err)
			}
			rl.out = append(rl.out, nw)
			if nw == w {
				rl.foldRun(reg, payload[i:i+1])
				continue
			}
			rl.flush()
			rl.origCRC = fpga.UpdateCRC(rl.origCRC, reg, w)
			rl.outCRC = fpga.UpdateCRC(rl.outCRC, reg, nw)
		case fpga.RegCMD:
			rl.out = append(rl.out, w)
			switch w & 0x1F {
			case fpga.CmdRCRC:
				// The reset makes every byte folded so far dead.
				rl.pend = rl.pend[:0]
				rl.origCRC, rl.outCRC = 0, 0
				continue
			case fpga.CmdDesync:
				rl.desynced = true
			}
			rl.foldRun(reg, payload[i:i+1])
		}
	}
	return nil
}

// foldRun queues the (reg, word) records of ws for both CRCs.
//
//lint:hot
func (rl *relocator) foldRun(reg uint32, ws []uint32) {
	for len(ws) > 0 {
		n := min(len(ws), (cap(rl.pend)-len(rl.pend))/5)
		if n == 0 {
			rl.flush()
			continue
		}
		at := len(rl.pend)
		rl.pend = rl.pend[:at+5*n]
		rec := rl.pend[at:]
		for i, w := range ws[:n] {
			r := rec[5*i : 5*i+5 : 5*i+5]
			r[0] = byte(reg)
			binary.LittleEndian.PutUint32(r[1:], w)
		}
		ws = ws[n:]
	}
}

// flush folds the queued run into both CRCs.
func (rl *relocator) flush() {
	if len(rl.pend) > 0 {
		rl.origCRC = fpga.UpdateCRCBytes(rl.origCRC, rl.pend)
		rl.outCRC = fpga.UpdateCRCBytes(rl.outCRC, rl.pend)
		rl.pend = rl.pend[:0]
	}
}

// RelocateImage retargets im through shift, returning a new image. The
// frame contents — and therefore the content signature the load
// produces — are unchanged; only the addresses move, so the relocated
// image activates the same registered module in its new region.
func RelocateImage(im *Image, partition string, shift func(far uint32) (uint32, error)) (*Image, error) {
	words, err := Relocate(nil, im.Words, shift)
	if err != nil {
		return nil, err
	}
	return &Image{
		Module:    im.Module,
		Partition: partition,
		Words:     words,
		Signature: im.Signature,
		Frames:    im.Frames,
	}, nil
}
