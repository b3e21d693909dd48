package transport

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"weaver/internal/workload"
)

// FuzzFrameReader feeds arbitrary byte streams to the connection frame
// reader: it must never panic, never allocate beyond MaxFrame for a
// corrupt length field, and stop at the first corrupt or truncated frame.
// Seeds include valid frame sequences (framed with this package's test
// codec, codec_test.go) and mutations derived from
// the repo-standard seed (WEAVER_TEST_SEED replays them).
func FuzzFrameReader(f *testing.F) {
	frame := func(from, to Addr, payload any) []byte {
		buf, err := AppendFrame(nil, from, to, payload)
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}
	one := frame("gk/0", "shard/1", "hello")
	two := append(append([]byte{}, one...), frame("shard/1", "gk/0", 42)...)
	f.Add(one)
	f.Add(two)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // length far beyond MaxFrame
	f.Add([]byte{0, 0, 0, 8, 1, 2, 3})    // truncated mid-frame
	f.Add([]byte{})
	r := rand.New(rand.NewSource(workload.TestSeed(f)))
	for i := 0; i < 8; i++ {
		b := append([]byte{}, two...)
		b[r.Intn(len(b))] ^= byte(1 << r.Intn(8))
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &frameReader{r: bytes.NewReader(data)}
		for i := 0; i < 64; i++ {
			if _, _, _, err := fr.next(); err != nil {
				return
			}
		}
	})
}

// TestFrameReaderRejectsOversizedLength pins the allocation guard: a
// corrupt length field larger than MaxFrame must fail before any
// allocation happens.
func TestFrameReaderRejectsOversizedLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	fr := &frameReader{r: bytes.NewReader(hdr[:])}
	if _, _, _, err := fr.next(); err == nil {
		t.Fatal("oversized frame length must be rejected")
	}
	if fr.buf != nil {
		t.Fatal("rejected frame must not have allocated a buffer")
	}
}

// TestFrameCRCDetectsCorruption flips every byte of a frame in turn; the
// decoder must reject each mutation (or, for length-field bytes, fail to
// read) — never deliver a corrupted envelope as valid with the same
// content. CRC-32C collisions on single-bit flips are impossible.
func TestFrameCRCDetectsCorruption(t *testing.T) {
	buf, err := AppendFrame(nil, "a", "b", "payload")
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < len(buf); i++ {
		mut := append([]byte{}, buf...)
		mut[i] ^= 0x01
		if _, _, _, err := DecodeFrame(mut[4:]); err == nil {
			t.Fatalf("single-bit corruption at offset %d not detected", i)
		}
	}
}
