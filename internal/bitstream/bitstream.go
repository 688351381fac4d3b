// Package bitstream generates, serialises, parses and compresses the
// partial bitstreams that flow through the RV-CAP data path. It plays
// the role Vivado's write_bitstream plays for the paper: given a
// reconfigurable partition and a module identity, it emits a
// 7-series-style configuration word stream (sync word, IDCODE check,
// WCFG, per-run FAR + FDRI bursts with trailing pad frames, CRC check,
// DESYNC) that the fpga.ICAP engine accepts and that activates the
// module in the partition.
//
// Frame payloads are generated deterministically from the
// (partition, module) identity, so a bit-exact load reproduces the
// module's registered content signature — the model's equivalent of
// "the right logic is now in the fabric".
package bitstream

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"rvcap/internal/fpga"
)

// Image is a generated partial bitstream together with its provenance.
type Image struct {
	// Module and Partition identify what the image loads and where.
	Module    string
	Partition string
	// Words is the raw configuration word stream fed to the ICAP.
	Words []uint32
	// Signature is the partition content signature a successful load
	// produces; register it with fpga.Fabric.RegisterModule.
	Signature uint64
	// Frames is the number of logic frames the image writes (excluding
	// per-run pad frames).
	Frames int
}

// Options tunes image generation.
type Options struct {
	// PadToBytes pads the stream with NOP packets (before the final
	// DESYNC) until the serialised size reaches this many bytes. The
	// default module images pad to the paper's reported 650 892-byte
	// partial bitstream so size-derived timing matches §IV-A. Zero
	// disables padding.
	PadToBytes int
	// SkipCRC omits the CRC check word (some flows disable CRC; the
	// RT-ICAP/safety ablations use this).
	SkipCRC bool
}

// DefaultBitstreamBytes is the partial bitstream size the paper reports
// for its RP ("The partial bitstream size is 650892 bytes", §IV-A).
const DefaultBitstreamBytes = 650892

// frameContent derives the deterministic payload of one frame of a
// module placed in a partition (a splitmix64 stream seeded from the
// identity), standing in for the synthesised logic bits. Real
// configuration frames are sparse — most routing/LUT bits of any one
// design are zero, in runs — so the generator interleaves zero runs
// with data runs (roughly half the words end up zero). That preserves
// the compressibility structure the RT-ICAP compression study [15]
// depends on, while keeping every module's content unique.
func frameContent(partition, module string, frameIdx int) []uint32 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d", partition, module, frameIdx)
	state := h.Sum64()
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	words := make([]uint32, fpga.FrameWords)
	i := 0
	zeroRun := frameIdx%2 == 0
	for i < len(words) {
		v := next()
		runLen := 2 + int(v%12)
		if zeroRun {
			i += runLen // leave zeros
		} else {
			for j := 0; j < runLen && i < len(words); j++ {
				words[i] = uint32(next())
				i++
			}
		}
		zeroRun = !zeroRun
	}
	return words
}

// zeroFrame is the all-zero frame payload of pad and blanking frames;
// it is only ever read.
var zeroFrame [fpga.FrameWords]uint32

// builder accumulates a configuration word stream while tracking the CRC
// exactly as the fpga.ICAP engine computes it.
type builder struct {
	words  []uint32
	crc    uint32
	crcBuf []byte // per-frame scratch for batched CRC folding
}

func (b *builder) raw(ws ...uint32) { b.words = append(b.words, ws...) }

func (b *builder) write(reg uint32, vals ...uint32) {
	b.raw(fpga.Type1Write(reg, len(vals)))
	for _, v := range vals {
		b.raw(v)
		if reg != fpga.RegCRC {
			b.crc = fpga.UpdateCRC(b.crc, reg, v)
		}
	}
}

func (b *builder) cmd(c uint32) {
	b.write(fpga.RegCMD, c)
	if c == fpga.CmdRCRC {
		b.crc = 0
	}
}

func (b *builder) fdriType2(frames [][]uint32) {
	b.raw(fpga.Type1Write(fpga.RegFDRI, 0))
	n := 0
	for _, f := range frames {
		n += len(f)
	}
	b.raw(fpga.Type2Write(n))
	for _, f := range frames {
		b.words = append(b.words, f...)
		// Fold the frame's CRC bytes in one batched call (the byte run
		// UpdateCRC would produce word by word).
		b.crcBuf = b.crcBuf[:0]
		for _, w := range f {
			b.crcBuf = append(b.crcBuf, fpga.RegFDRI, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
		}
		b.crc = fpga.UpdateCRCBytes(b.crc, b.crcBuf)
	}
}

// emitStream builds the full configuration word stream for the given
// frame runs, fetching each frame's payload through content. It is the
// shared core of Partial and BlankFrames.
func emitStream(dev *fpga.Device, runs [][2]int, content func(idx int) []uint32, opts Options) ([]uint32, int, error) {
	// Size the stream once: fixed packets, then per run a FAR write, a
	// NOP, the two FDRI headers and the frames plus their pad frame; the
	// padding target bounds it from below.
	const fixedWords = 64
	size, longest := fixedWords, 0
	for _, run := range runs {
		size += 5 + (run[1]-run[0]+2)*fpga.FrameWords
		longest = max(longest, run[1]-run[0]+2)
	}
	b := builder{words: make([]uint32, 0, max(size, opts.PadToBytes/4))}
	payload := make([][]uint32, 0, longest)
	// Standard preamble: dummies, bus-width detect, sync.
	b.raw(fpga.DummyWord, fpga.DummyWord, fpga.DummyWord, fpga.DummyWord,
		fpga.BusWidthSync, fpga.BusWidthWord, fpga.DummyWord, fpga.DummyWord,
		fpga.SyncWord, fpga.NoopWord)
	b.cmd(fpga.CmdRCRC)
	b.raw(fpga.NoopWord, fpga.NoopWord)
	b.write(fpga.RegIDCODE, dev.IDCode)
	b.cmd(fpga.CmdWCFG)
	b.raw(fpga.NoopWord)

	frames := 0
	for _, run := range runs {
		far, err := dev.IndexToFAR(run[0])
		if err != nil {
			return nil, 0, fmt.Errorf("bitstream: %v", err)
		}
		b.write(fpga.RegFAR, far)
		b.raw(fpga.NoopWord)
		payload = payload[:0]
		for idx := run[0]; idx <= run[1]; idx++ {
			payload = append(payload, content(idx))
			frames++
		}
		payload = append(payload, zeroFrame[:]) // pad frame
		b.fdriType2(payload)
	}

	b.cmd(fpga.CmdLFRM)
	if !opts.SkipCRC {
		b.write(fpga.RegCRC, b.crc)
	}
	b.raw(fpga.NoopWord, fpga.NoopWord)
	b.cmd(fpga.CmdStart)

	// Pad with NOPs ahead of DESYNC to reach the requested file size
	// (Vivado images carry similar command padding).
	const trailerWords = 2 /* desync cmd packet */ + 4 /* trailing noops */
	if opts.PadToBytes > 0 {
		want := opts.PadToBytes / 4
		have := len(b.words) + trailerWords
		if want < have {
			return nil, 0, fmt.Errorf("bitstream: PadToBytes %d smaller than stream (%d bytes)",
				opts.PadToBytes, have*4)
		}
		for i := have; i < want; i++ {
			b.raw(fpga.NoopWord)
		}
	}
	b.cmd(fpga.CmdDesync)
	b.raw(fpga.NoopWord, fpga.NoopWord, fpga.NoopWord, fpga.NoopWord)
	return b.words, frames, nil
}

// Partial generates the partial bitstream that loads module into part on
// dev. The stream writes each contiguous frame run of the partition as
// one FAR + FDRI burst with a trailing pad frame (the 7-series frame
// buffer requires N+1 frames of data to write N frames).
func Partial(dev *fpga.Device, part *fpga.Partition, module string, opts Options) (*Image, error) {
	content := make(map[int][]uint32, part.NumFrames())
	for _, idx := range part.Frames() {
		content[idx] = frameContent(part.Name, module, idx)
	}
	words, frames, err := emitStream(dev, part.Runs(),
		func(idx int) []uint32 { return content[idx] }, opts)
	if err != nil {
		return nil, fmt.Errorf("bitstream: partition %s: %v", part.Name, err)
	}
	sig := fpga.HashFrames(func(idx int) []uint32 { return content[idx] }, part.Frames())
	return &Image{
		Module:    module,
		Partition: part.Name,
		Words:     words,
		Signature: sig,
		Frames:    frames,
	}, nil
}

// BlankFrames generates the blanking bitstream for the given linear
// frame indices: all-zero content over every contiguous run, with the
// same preamble, pad-frame and CRC structure as Partial. Loading it
// clears whatever logic the span realised — the placement layer blanks
// a vacated span after relocating or destroying the region that covered
// it. The frames need not belong to any partition.
func BlankFrames(dev *fpga.Device, frames []int, opts Options) (*Image, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("bitstream: blanking an empty frame set")
	}
	sorted := append([]int(nil), frames...)
	sort.Ints(sorted)
	var runs [][2]int
	for i := 0; i < len(sorted); {
		j := i
		for j+1 < len(sorted) && sorted[j+1] == sorted[j]+1 {
			j++
		}
		runs = append(runs, [2]int{sorted[i], sorted[j]})
		i = j + 1
	}
	zero := func(int) []uint32 { return zeroFrame[:] }
	words, n, err := emitStream(dev, runs, zero, opts)
	if err != nil {
		return nil, err
	}
	sig := fpga.HashFrames(zero, sorted)
	return &Image{Module: "", Partition: "", Words: words, Signature: sig, Frames: n}, nil
}

// Register makes the fabric recognise the image's content signature as
// its module, so a successful load activates it.
func Register(fab *fpga.Fabric, im *Image) {
	fab.RegisterModule(im.Module, im.Signature)
}

// SizeBytes returns the serialised size of the image.
func (im *Image) SizeBytes() int { return len(im.Words) * 4 }

// Bytes serialises the word stream big-endian (configuration words are
// defined most-significant-bit first; real .bin files additionally
// bit-swap within bytes, which no model here depends on).
func (im *Image) Bytes() []byte {
	return WordsToBytes(im.Words)
}

// WordsToBytes serialises configuration words big-endian.
func WordsToBytes(words []uint32) []byte {
	return AppendBytes(make([]byte, 0, len(words)*4), words)
}

// AppendBytes appends words serialised big-endian to dst and returns
// the extended slice.
func AppendBytes(dst []byte, words []uint32) []byte {
	n := len(dst)
	dst = slices.Grow(dst, len(words)*4)[:n+len(words)*4]
	for i, w := range words {
		binary.BigEndian.PutUint32(dst[n+i*4:], w)
	}
	return dst
}

// BytesToWords deserialises a big-endian word stream. The byte count
// must be word-aligned.
func BytesToWords(b []byte) ([]uint32, error) {
	return AppendWords(make([]uint32, 0, len(b)/4), b)
}

// AppendWords appends the big-endian word stream b (word-aligned) to
// dst and returns the extended slice.
func AppendWords(dst []uint32, b []byte) ([]uint32, error) {
	if len(b)%4 != 0 {
		return dst, fmt.Errorf("bitstream: %d bytes is not word-aligned", len(b))
	}
	n := len(dst)
	dst = slices.Grow(dst, len(b)/4)[:n+len(b)/4]
	for i := range dst[n:] {
		dst[n+i] = binary.BigEndian.Uint32(b[i*4:])
	}
	return dst, nil
}
