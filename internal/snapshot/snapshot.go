// Package snapshot implements Weaver's segmented, checksummed on-disk
// snapshot format — the durable image of the transactional backing store
// (§3.2, §4.3). kvstore.Store.Checkpoint is its one writer: it freezes
// commits, streams every live entry (including tombstones and versions)
// into numbered segments, atomically publishes a manifest, and truncates
// the write-ahead log. Reopening the store loads snapshot + WAL tail
// instead of replaying the full history. Bulk ingest
// (weaver.Cluster.BulkLoadGraph) writes no snapshot: it batches records
// DefaultSegmentEntries at a time straight into the store (BulkPut).
//
// # On-disk layout
//
// A snapshot with sequence number S over a base path P consists of
//
//	P.snap-S.seg-0, P.snap-S.seg-1, ...   data segments
//	P.snap-S.manifest                      published last, atomically
//
// Each segment is a stream of length-prefixed entries framed as
//
//	magic "WVSEG001"
//	entry*: flags u8, version u64, keyLen u32, valLen u32, key, val
//	footer: 0xFF marker, count u64, crc32 u32 (of all preceding bytes)
//
// The manifest (same framing idea: magic, binenc body, crc32 trailer) names
// every segment and its entry count. A snapshot is valid if and only if
// its manifest decodes cleanly and every listed segment's footer checksum
// matches — so a torn write anywhere (crash mid-checkpoint) invalidates
// the whole snapshot and recovery falls back to the previous one plus its
// un-truncated WAL, never losing committed state.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// Entry is one key-value record in a segment. Version and Dead carry the
// backing store's OCC metadata so tombstones and per-key version
// monotonicity survive a checkpoint/restore cycle.
type Entry struct {
	Key     string
	Value   []byte
	Version uint64
	Dead    bool
}

var segMagic = [8]byte{'W', 'V', 'S', 'E', 'G', '0', '0', '1'}

// crcTable selects CRC-32C (Castagnoli), hardware-accelerated on amd64 and
// arm64 — segments checksum gigabytes during checkpoints and bulk loads.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	flagDead   = 0x01
	footerMark = 0xFF
)

// ErrCorrupt is wrapped by every torn-write / checksum failure detected by
// the readers in this package.
var ErrCorrupt = errors.New("snapshot: corrupt")

// Writer streams entries into one segment. Close writes the footer; a
// segment without a valid footer is detected as torn by ReadSegment.
type Writer struct {
	w     *bufio.Writer
	crc   hash.Hash32
	count uint64
	err   error
}

// NewWriter starts a segment on w.
func NewWriter(w io.Writer) (*Writer, error) {
	sw := &Writer{w: bufio.NewWriterSize(w, 1<<16), crc: crc32.New(crcTable)}
	if _, err := sw.writeRaw(segMagic[:]); err != nil {
		return nil, err
	}
	return sw, nil
}

// writeRaw writes bytes to both the output and the running checksum.
func (sw *Writer) writeRaw(p []byte) (int, error) {
	if sw.err != nil {
		return 0, sw.err
	}
	n, err := sw.w.Write(p)
	if err != nil {
		sw.err = err
		return n, err
	}
	sw.crc.Write(p)
	return n, nil
}

// Write appends one entry.
func (sw *Writer) Write(e Entry) error {
	var hdr [1 + 8 + 4 + 4]byte
	if e.Dead {
		hdr[0] = flagDead
	}
	binary.BigEndian.PutUint64(hdr[1:9], e.Version)
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(e.Key)))
	binary.BigEndian.PutUint32(hdr[13:17], uint32(len(e.Value)))
	if _, err := sw.writeRaw(hdr[:]); err != nil {
		return err
	}
	if _, err := sw.writeRaw([]byte(e.Key)); err != nil {
		return err
	}
	if _, err := sw.writeRaw(e.Value); err != nil {
		return err
	}
	sw.count++
	return nil
}

// Count returns the number of entries written so far.
func (sw *Writer) Count() uint64 { return sw.count }

// Close writes the footer (marker, count, checksum) and flushes. It does
// not sync or close the underlying writer; file-level durability is the
// caller's job.
func (sw *Writer) Close() error {
	if sw.err != nil {
		return sw.err
	}
	var tail [1 + 8 + 4]byte
	tail[0] = footerMark
	binary.BigEndian.PutUint64(tail[1:9], sw.count)
	// The checksum covers everything before the footer; marker and count
	// are protected implicitly (a corrupted count desynchronizes the crc
	// position, a corrupted marker fails entry parsing).
	binary.BigEndian.PutUint32(tail[9:13], sw.crc.Sum32())
	if _, err := sw.w.Write(tail[:]); err != nil {
		sw.err = err
		return err
	}
	return sw.w.Flush()
}

// maxEntryLen bounds a single key or value, rejecting absurd lengths from
// corrupt headers before allocating.
const maxEntryLen = 1 << 30

// readEntryBody reads exactly size bytes, growing the buffer in bounded
// chunks as data actually arrives: a corrupt header claiming a
// gigabyte-sized entry on a short stream must fail with a read error, not
// allocate the full claim up front (found by FuzzReadSegment).
func readEntryBody(r io.Reader, size int) ([]byte, error) {
	const chunk = 1 << 16
	if size <= chunk {
		buf := make([]byte, size)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf := make([]byte, 0, chunk)
	for len(buf) < size {
		step := size - len(buf)
		if step > chunk {
			step = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// ReadSegment streams every entry of one segment to fn, then validates the
// footer. Any framing damage — bad magic, truncated entry, missing footer,
// checksum or count mismatch — returns an error wrapping ErrCorrupt.
func ReadSegment(r io.Reader, fn func(Entry) error) (count uint64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	crc := crc32.New(crcTable)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, fmt.Errorf("%w: segment magic: %v", ErrCorrupt, err)
	}
	if magic != segMagic {
		return 0, fmt.Errorf("%w: bad segment magic %q", ErrCorrupt, magic[:])
	}
	crc.Write(magic[:])
	var n uint64
	for {
		flags, err := br.ReadByte()
		if err != nil {
			return n, fmt.Errorf("%w: segment truncated before footer: %v", ErrCorrupt, err)
		}
		if flags == footerMark {
			var tail [8 + 4]byte
			if _, err := io.ReadFull(br, tail[:]); err != nil {
				return n, fmt.Errorf("%w: torn footer: %v", ErrCorrupt, err)
			}
			wantCount := binary.BigEndian.Uint64(tail[0:8])
			wantCRC := binary.BigEndian.Uint32(tail[8:12])
			if wantCount != n {
				return n, fmt.Errorf("%w: footer count %d, read %d entries", ErrCorrupt, wantCount, n)
			}
			if got := crc.Sum32(); got != wantCRC {
				return n, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrCorrupt, got, wantCRC)
			}
			return n, nil
		}
		var hdr [8 + 4 + 4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return n, fmt.Errorf("%w: torn entry header: %v", ErrCorrupt, err)
		}
		keyLen := binary.BigEndian.Uint32(hdr[8:12])
		valLen := binary.BigEndian.Uint32(hdr[12:16])
		if keyLen > maxEntryLen || valLen > maxEntryLen {
			return n, fmt.Errorf("%w: implausible entry lengths %d/%d", ErrCorrupt, keyLen, valLen)
		}
		buf, err := readEntryBody(br, int(keyLen)+int(valLen))
		if err != nil {
			return n, fmt.Errorf("%w: torn entry body: %v", ErrCorrupt, err)
		}
		crc.Write([]byte{flags})
		crc.Write(hdr[:])
		crc.Write(buf)
		e := Entry{
			Key:     string(buf[:keyLen]),
			Value:   buf[keyLen:],
			Version: binary.BigEndian.Uint64(hdr[0:8]),
			Dead:    flags&flagDead != 0,
		}
		n++
		if err := fn(e); err != nil {
			return n, err
		}
	}
}
