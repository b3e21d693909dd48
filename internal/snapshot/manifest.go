package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"weaver/internal/binenc"
)

// SegmentInfo names one data segment of a snapshot.
type SegmentInfo struct {
	// Name is the segment file name (no directory).
	Name string
	// Entries is the number of entries the segment must contain.
	Entries uint64
}

// Manifest describes one complete snapshot. It is published atomically
// (write-temp, fsync, rename) after every segment is durable, so its
// existence with a valid checksum certifies the whole snapshot — modulo
// per-segment footers, which Load still verifies.
type Manifest struct {
	// Seq is the snapshot sequence number; higher supersedes lower.
	Seq uint64
	// Segments lists the data segments in load order.
	Segments []SegmentInfo
	// Entries is the total entry count across segments.
	Entries uint64
	// Meta carries free-form producer annotations (e.g. the bulk-load
	// timestamp, the checkpointed WAL era).
	Meta map[string]string
}

// manMagic heads every manifest. 002 is the binenc body; a 001 (gob-bodied)
// file fails the magic check and reads as ErrCorrupt.
var manMagic = [8]byte{'W', 'V', 'M', 'A', 'N', '0', '0', '2'}

// ManifestPath returns the manifest file path of snapshot seq over base.
func ManifestPath(base string, seq uint64) string {
	return fmt.Sprintf("%s.snap-%d.manifest", base, seq)
}

// SegmentName returns the file name (no directory) of segment idx.
func SegmentName(base string, seq uint64, idx int) string {
	return fmt.Sprintf("%s.snap-%d.seg-%d", filepath.Base(base), seq, idx)
}

// segmentPath resolves a manifest-listed segment name next to base.
func segmentPath(base, name string) string {
	return filepath.Join(filepath.Dir(base), name)
}

// WriteManifest publishes m atomically at ManifestPath(base, m.Seq).
func WriteManifest(base string, m Manifest) error {
	body := append([]byte(nil), manMagic[:]...)
	body = binenc.AppendUvarint(body, m.Seq)
	body = binenc.AppendUvarint(body, uint64(len(m.Segments)))
	for _, seg := range m.Segments {
		body = binenc.AppendStr(body, seg.Name)
		body = binenc.AppendUvarint(body, seg.Entries)
	}
	body = binenc.AppendUvarint(body, m.Entries)
	body = binenc.AppendStrMap(body, m.Meta)
	body = binary.BigEndian.AppendUint32(body, crc32.Checksum(body, crcTable))

	final := ManifestPath(base, m.Seq)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, body, 0o644); err != nil {
		return err
	}
	if err := syncFile(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(final))
	return nil
}

// LoadManifest reads and validates the manifest of snapshot seq.
func LoadManifest(base string, seq uint64) (Manifest, error) {
	raw, err := os.ReadFile(ManifestPath(base, seq))
	if err != nil {
		return Manifest{}, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if len(raw) < len(manMagic)+4 || !bytes.Equal(raw[:8], manMagic[:]) {
		return Manifest{}, fmt.Errorf("%w: bad manifest framing", ErrCorrupt)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(tail) {
		return Manifest{}, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	d := binenc.Decoder{Buf: body[8:]}
	m := Manifest{Seq: d.Uvarint()}
	if n := d.Count(2); n > 0 && d.Err == nil { // segment ≥2 bytes: name prefix + entries
		m.Segments = make([]SegmentInfo, 0, n)
		for i := uint64(0); i < n && d.Err == nil; i++ {
			m.Segments = append(m.Segments, SegmentInfo{Name: d.Str(), Entries: d.Uvarint()})
		}
	}
	m.Entries = d.Uvarint()
	m.Meta = d.StrMap()
	if d.Err != nil || len(d.Buf) != 0 {
		return Manifest{}, fmt.Errorf("%w: manifest decode: %v, %d trailing bytes", ErrCorrupt, d.Err, len(d.Buf))
	}
	if m.Seq != seq {
		return Manifest{}, fmt.Errorf("%w: manifest seq %d at path for %d", ErrCorrupt, m.Seq, seq)
	}
	return m, nil
}

// DefaultSegmentEntries is the segment size checkpoints and bulk-load
// segment builders use.
const DefaultSegmentEntries = 4096

// Write streams entries from iter into segments of at most segEntries each
// and publishes the manifest — the complete, atomic "write one snapshot"
// operation. Segments are fsynced before the manifest appears, so a crash
// at any point either leaves the previous snapshot authoritative or the
// new one fully valid. meta is attached to the manifest verbatim.
func Write(base string, seq uint64, segEntries int, meta map[string]string, iter func(yield func(Entry) error) error) (Manifest, error) {
	if segEntries <= 0 {
		segEntries = DefaultSegmentEntries
	}
	m := Manifest{Seq: seq, Meta: meta}

	var (
		f   *os.File
		sw  *Writer
		cur int // entries in the open segment
	)
	closeSeg := func() error {
		if f == nil {
			return nil
		}
		if err := sw.Close(); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		f, sw, cur = nil, nil, 0
		return nil
	}
	yield := func(e Entry) error {
		if f != nil && cur >= segEntries {
			if err := closeSeg(); err != nil {
				return err
			}
		}
		if f == nil {
			name := SegmentName(base, seq, len(m.Segments))
			var err error
			f, err = os.Create(segmentPath(base, name))
			if err != nil {
				return err
			}
			sw, err = NewWriter(f)
			if err != nil {
				f.Close()
				return err
			}
			m.Segments = append(m.Segments, SegmentInfo{Name: name})
		}
		if err := sw.Write(e); err != nil {
			return err
		}
		cur++
		m.Segments[len(m.Segments)-1].Entries++
		m.Entries++
		return nil
	}

	err := iter(yield)
	if err == nil {
		err = closeSeg()
	}
	if err == nil {
		err = WriteManifest(base, m)
	}
	if err != nil {
		if f != nil {
			f.Close()
		}
		Remove(base, seq)
		return Manifest{}, err
	}
	return m, nil
}

// Load streams every entry of snapshot seq to fn, verifying each segment's
// footer and the manifest's entry counts. Errors wrap ErrCorrupt for any
// torn or damaged state; the caller falls back to an older snapshot.
func Load(base string, seq uint64, fn func(Entry) error) (Manifest, error) {
	m, err := LoadManifest(base, seq)
	if err != nil {
		return Manifest{}, err
	}
	var total uint64
	for _, seg := range m.Segments {
		f, err := os.Open(segmentPath(base, seg.Name))
		if err != nil {
			return m, fmt.Errorf("%w: open %s: %v", ErrCorrupt, seg.Name, err)
		}
		n, err := ReadSegment(f, fn)
		f.Close()
		if err != nil {
			return m, err
		}
		if n != seg.Entries {
			return m, fmt.Errorf("%w: %s holds %d entries, manifest says %d", ErrCorrupt, seg.Name, n, seg.Entries)
		}
		total += n
	}
	if total != m.Entries {
		return m, fmt.Errorf("%w: snapshot holds %d entries, manifest says %d", ErrCorrupt, total, m.Entries)
	}
	return m, nil
}

// Seqs returns every snapshot sequence number published over base
// (manifest present; not necessarily valid), newest first.
func Seqs(base string) []uint64 {
	dir, prefix := filepath.Dir(base), filepath.Base(base)+".snap-"
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var seqs []uint64
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".manifest") {
			continue
		}
		var seq uint64
		numPart := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".manifest")
		if _, err := fmt.Sscanf(numPart, "%d", &seq); err == nil && fmt.Sprintf("%d", seq) == numPart {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs
}

// Remove deletes every file of snapshot seq (manifest first, so a
// half-removed snapshot is never mistaken for a live one). Best-effort.
func Remove(base string, seq uint64) {
	os.Remove(ManifestPath(base, seq))
	os.Remove(ManifestPath(base, seq) + ".tmp")
	dir := filepath.Dir(base)
	prefix := fmt.Sprintf("%s.snap-%d.seg-", filepath.Base(base), seq)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), prefix) {
			os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
}

func syncFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// syncDir makes a rename durable on filesystems that need the directory
// fsynced; failures are ignored (not all platforms support it).
func syncDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	f.Sync()
}
