package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func entryN(i int) Entry {
	return Entry{
		Key:     fmt.Sprintf("key/%05d", i),
		Value:   bytes.Repeat([]byte{byte(i)}, i%50),
		Version: uint64(i + 1),
		Dead:    i%7 == 0,
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := sw.Write(entryN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Entry
	count, err := ReadSegment(bytes.NewReader(buf.Bytes()), func(e Entry) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n || len(got) != n {
		t.Fatalf("read %d/%d entries, want %d", count, len(got), n)
	}
	for i, e := range got {
		want := entryN(i)
		if e.Key != want.Key || !bytes.Equal(e.Value, want.Value) || e.Version != want.Version || e.Dead != want.Dead {
			t.Fatalf("entry %d mismatch: %+v != %+v", i, e, want)
		}
	}
}

func TestSegmentTornDetection(t *testing.T) {
	var buf bytes.Buffer
	sw, _ := NewWriter(&buf)
	for i := 0; i < 100; i++ {
		sw.Write(entryN(i))
	}
	sw.Close()
	full := buf.Bytes()

	// Any truncation must be detected: no footer, or a torn footer.
	for _, cut := range []int{len(full) - 1, len(full) - 5, len(full) / 2, len(segMagic) + 3} {
		_, err := ReadSegment(bytes.NewReader(full[:cut]), func(Entry) error { return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d/%d not detected: %v", cut, len(full), err)
		}
	}

	// A flipped byte in the middle must fail the checksum (or framing).
	for _, pos := range []int{20, len(full) / 2, len(full) - 6} {
		bad := append([]byte(nil), full...)
		bad[pos] ^= 0x40
		_, err := ReadSegment(bytes.NewReader(bad), func(Entry) error { return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corruption at %d not detected", pos)
		}
	}
}

func writeTestSnapshot(t *testing.T, base string, seq uint64, n int) Manifest {
	t.Helper()
	m, err := Write(base, seq, 64, map[string]string{"origin": "test"}, func(yield func(Entry) error) error {
		for i := 0; i < n; i++ {
			if err := yield(entryN(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWriteLoadManifest(t *testing.T) {
	base := filepath.Join(t.TempDir(), "store.wal")
	const n = 300
	m := writeTestSnapshot(t, base, 3, n)
	if m.Entries != n {
		t.Fatalf("manifest entries %d, want %d", m.Entries, n)
	}
	if want := (n + 63) / 64; len(m.Segments) != want {
		t.Fatalf("segments %d, want %d", len(m.Segments), want)
	}

	var got int
	lm, err := Load(base, 3, func(e Entry) error { got++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got != n || lm.Entries != n || lm.Meta["origin"] != "test" {
		t.Fatalf("load got %d entries, manifest %+v", got, lm)
	}

	if seqs := Seqs(base); len(seqs) != 1 || seqs[0] != 3 {
		t.Fatalf("Seqs = %v, want [3]", seqs)
	}
}

func TestLoadDetectsTornSegment(t *testing.T) {
	base := filepath.Join(t.TempDir(), "store.wal")
	m := writeTestSnapshot(t, base, 1, 200)

	seg := segmentPath(base, m.Segments[len(m.Segments)-1].Name)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(base, 1, func(Entry) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn segment not detected: %v", err)
	}

	// A missing segment is also corruption.
	os.Remove(seg)
	if _, err := Load(base, 1, func(Entry) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing segment not detected: %v", err)
	}
}

func TestLoadDetectsBadManifest(t *testing.T) {
	base := filepath.Join(t.TempDir(), "store.wal")
	want := writeTestSnapshot(t, base, 1, 50)
	got, err := LoadManifest(base, 1)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("manifest round trip: %+v, %v; want %+v", got, err, want)
	}

	mp := ManifestPath(base, 1)
	raw, _ := os.ReadFile(mp)
	reject := func(what string, data []byte) {
		t.Helper()
		os.WriteFile(mp, data, 0o644)
		if _, err := LoadManifest(base, 1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s not detected: %v", what, err)
		}
	}
	// Every single-bit flip and every truncation (a torn tmp file renamed
	// into place anyway) is corruption, never a misparse.
	for i := range raw {
		mut := append([]byte{}, raw...)
		mut[i] ^= 0x01
		reject(fmt.Sprintf("bit flip at offset %d", i), mut)
	}
	for n := 0; n < len(raw); n++ {
		reject(fmt.Sprintf("truncation to %d bytes", n), raw[:n])
	}
	reject("garbage manifest", []byte("not a manifest"))
	// A manifest from before the binenc body carries the previous magic.
	old := append([]byte("WVMAN001"), raw[8:]...)
	reject("previous-format magic", old)

	os.WriteFile(mp, raw, 0o644)
	if _, err := Load(base, 1, func(Entry) error { return nil }); err != nil {
		t.Fatalf("restored manifest: %v", err)
	}
}

func TestSeqsOrderingAndRemove(t *testing.T) {
	base := filepath.Join(t.TempDir(), "store.wal")
	for _, seq := range []uint64{1, 3, 2} {
		writeTestSnapshot(t, base, seq, 10)
	}
	if seqs := Seqs(base); len(seqs) != 3 || seqs[0] != 3 || seqs[1] != 2 || seqs[2] != 1 {
		t.Fatalf("Seqs = %v, want [3 2 1]", seqs)
	}
	Remove(base, 3)
	if seqs := Seqs(base); len(seqs) != 2 || seqs[0] != 2 {
		t.Fatalf("after Remove(3): Seqs = %v, want [2 1]", seqs)
	}
	// Removed snapshot's segments are gone too.
	ents, _ := os.ReadDir(filepath.Dir(base))
	for _, ent := range ents {
		if got := ent.Name(); bytes.Contains([]byte(got), []byte(".snap-3.")) {
			t.Fatalf("stale file %s after Remove", got)
		}
	}
}

func TestEmptySnapshot(t *testing.T) {
	base := filepath.Join(t.TempDir(), "store.wal")
	m := writeTestSnapshot(t, base, 1, 0)
	if m.Entries != 0 || len(m.Segments) != 0 {
		t.Fatalf("empty snapshot manifest %+v", m)
	}
	n := 0
	if _, err := Load(base, 1, func(Entry) error { n++; return nil }); err != nil || n != 0 {
		t.Fatalf("empty snapshot load: n=%d err=%v", n, err)
	}
}
