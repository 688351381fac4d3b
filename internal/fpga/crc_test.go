package fpga

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestUpdateCRCMatchesStdlib checks the table fold against crc32.Update
// over the same 5 serialised bytes, and the batched run against the
// word-by-word fold.
func TestUpdateCRCMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	run := make([]byte, 0, 5*64)
	var batched, folded uint32
	for i := 0; i < 10000; i++ {
		crc, reg, w := rng.Uint32(), rng.Uint32()&0x1F, rng.Uint32()
		b := []byte{byte(reg), byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}
		if got, want := UpdateCRC(crc, reg, w), crc32.Update(crc, crcTable, b); got != want {
			t.Fatalf("UpdateCRC(%#08x, %#x, %#08x) = %#08x, crc32.Update = %#08x", crc, reg, w, got, want)
		}
		folded = UpdateCRC(folded, reg, w)
		run = append(run, b...)
		if len(run) == cap(run) {
			batched = UpdateCRCBytes(batched, run)
			run = run[:0]
		}
	}
	if batched = UpdateCRCBytes(batched, run); batched != folded {
		t.Fatalf("batched CRC %#08x, word-by-word %#08x", batched, folded)
	}
}

func TestUpdateCRCZeroAlloc(t *testing.T) {
	crc := uint32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		crc = UpdateCRC(crc, RegFDRI, crc^0xDEADBEEF)
	})
	if allocs != 0 {
		t.Fatalf("UpdateCRC allocates %.1f times per call, want 0", allocs)
	}
}
