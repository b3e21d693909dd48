package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"weaver/internal/binenc"
	"weaver/internal/obs"
)

// Record is one committed transaction in the write-ahead log.
type Record struct {
	Writes  map[string][]byte
	Deletes []string
}

// walMagic heads every log file; a non-empty file without it is ErrNotWAL.
var walMagic = [8]byte{'W', 'V', 'W', 'A', 'L', '0', '0', '1'}

// ErrNotWAL reports a file that holds data but does not start with the WAL
// magic: opening it for append would bury foreign bytes under log records.
var ErrNotWAL = errors.New("kvstore: not a write-ahead log")

// crcTable selects hardware-accelerated CRC-32C for record checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WAL is an append-only log of committed transactions. It provides the
// durability half of the backing store's fault-tolerance contract (§4.3):
// a restarted store replays the log — or, after a checkpoint, only the log
// tail — to recover all committed state.
//
// Records are length-prefixed, individually checksummed binenc blobs, so
// a torn tail write after a crash is detected precisely and replay
// recovers everything up to it.
//
// Append uses group commit: concurrent appenders encode under a short
// lock, then one of them performs a single fsync covering every record
// written so far while the rest wait on it. Under N concurrent committers
// this coalesces N syncs into a few, which is where most of the
// transactional write throughput comes from (see BenchmarkWALAppend).
type WAL struct {
	mu   sync.Mutex // guards f, buf and appendSeq
	f    *os.File
	buf  *bufio.Writer
	path string

	appendSeq uint64 // records encoded and buffered so far

	syncMu    sync.Mutex // serializes fsyncs; waiting on it joins the next group
	syncedSeq uint64     // records covered by a completed fsync (under syncMu)
	syncErr   error      // sticky: a failed sync poisons the log (under syncMu)

	syncs atomic.Uint64 // fsyncs performed (group-commit effectiveness metric)

	// Observability handles (nil-safe; set by Instrument before the log is
	// shared): fsync duration and records-per-group-commit.
	fsyncHist *obs.Histogram
	groupHist *obs.Histogram
}

// Instrument installs fsync-duration and group-commit-size histograms.
// Call before the log is shared with appenders.
func (w *WAL) Instrument(fsync, group *obs.Histogram) {
	w.syncMu.Lock()
	w.fsyncHist, w.groupHist = fsync, group
	w.syncMu.Unlock()
}

// OpenWAL opens (or creates) the log at path for appending. A file that
// already holds a header's worth of bytes must start with the WAL magic
// (ErrNotWAL otherwise).
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{f: f, buf: bufio.NewWriterSize(f, 1<<16), path: path}
	if st.Size() < int64(len(walMagic)) {
		// Empty, or torn during the initial magic write (nothing durable
		// was ever in a file this small): restart it.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := w.buf.Write(walMagic[:]); err != nil {
			f.Close()
			return nil, err
		}
		if err := w.buf.Flush(); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		return w, nil
	}
	var magic [8]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil || magic != walMagic {
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrNotWAL, path)
	}
	return w, nil
}

// maxWALRecord bounds one record's encoding (a single transaction's
// write-set). A complete header can only hold an implausible length if the
// log is damaged mid-file (torn writes never corrupt already-written
// bytes), so Replay treats it as corruption, not as a tail.
const maxWALRecord = 1 << 28

// Replay streams every record currently in the log to fn, in commit order,
// and returns the number of records delivered. A torn tail (crash mid
// append) is expected: replay ends cleanly before it and TRUNCATES the
// file to the valid prefix, so post-recovery appends can never land behind
// garbage. Damage in the middle of the log is an error. Must be called
// before Append (i.e., before the store is shared).
func (w *WAL) Replay(fn func(Record)) (int, error) {
	f, err := os.Open(w.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil // empty file: nothing to replay
		}
		return 0, err
	}
	if magic != walMagic {
		return 0, fmt.Errorf("%w: %s", ErrNotWAL, w.path)
	}
	n := 0
	validEnd := int64(len(walMagic)) // end offset of the last intact record
	torn := false
	for !torn {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				// Clean end: every byte of the file is intact.
				return n, nil
			}
			torn = true // partial header
			break
		}
		size := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if size > maxWALRecord {
			return n, fmt.Errorf("kvstore: WAL record %d implausible length %d (mid-log damage)", n, size)
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(br, payload); err != nil {
			torn = true // partial payload
			break
		}
		if crc32.Checksum(payload, crcTable) != sum {
			// Damage on the final record is a torn write; damage followed
			// by more data is mid-log corruption worth surfacing loudly.
			if _, err := br.Peek(1); err != nil {
				torn = true
				break
			}
			return n, fmt.Errorf("kvstore: WAL record %d checksum mismatch mid-log", n)
		}
		var rec Record
		if err := decodeWALRecord(payload, &rec); err != nil {
			return n, fmt.Errorf("kvstore: WAL record %d undecodable: %v", n, err)
		}
		fn(rec)
		n++
		validEnd += int64(len(hdr)) + int64(size)
	}
	// Torn tail: drop it now, so the append handle (O_APPEND, opened by
	// OpenWAL) writes the next record directly after the valid prefix —
	// never behind garbage a future replay would trip over.
	if err := w.f.Truncate(validEnd); err != nil {
		return n, fmt.Errorf("kvstore: truncate torn WAL tail: %w", err)
	}
	return n, nil
}

// encodeWALRecord serializes one record with length-prefixed fields — the
// commit hot path writes one per transaction.
func encodeWALRecord(rec Record) []byte {
	size := 16
	for k, v := range rec.Writes {
		size += 10 + len(k) + len(v)
	}
	for _, k := range rec.Deletes {
		size += 5 + len(k)
	}
	buf := make([]byte, 0, size)
	buf = binenc.AppendUvarint(buf, uint64(len(rec.Writes)))
	for k, v := range rec.Writes {
		buf = binenc.AppendStr(buf, k)
		buf = binenc.AppendBytes(buf, v)
	}
	buf = binenc.AppendUvarint(buf, uint64(len(rec.Deletes)))
	for _, k := range rec.Deletes {
		buf = binenc.AppendStr(buf, k)
	}
	return buf
}

// decodeWALRecord is the inverse of encodeWALRecord. The payload already
// passed its checksum, so framing errors indicate a codec bug, not disk
// damage — they are still surfaced rather than trusted.
func decodeWALRecord(payload []byte, rec *Record) error {
	d := binenc.Decoder{Buf: payload}
	if n := d.Count(2); n > 0 && d.Err == nil { // write ≥2 bytes: two length prefixes
		rec.Writes = make(map[string][]byte, n)
		for i := uint64(0); i < n && d.Err == nil; i++ {
			k := d.Str()
			rec.Writes[k] = d.Bytes()
		}
	}
	for n := d.Count(1); n > 0 && d.Err == nil; n-- {
		rec.Deletes = append(rec.Deletes, d.Str())
	}
	if d.Err == nil && len(d.Buf) != 0 {
		return fmt.Errorf("%d trailing bytes", len(d.Buf))
	}
	return d.Err
}

// frame encodes rec as header (length, checksum) plus payload.
func frame(rec Record) ([8]byte, []byte) {
	payload := encodeWALRecord(rec)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	return hdr, payload
}

// Append writes one committed transaction to the log and returns once it
// is durable. Safe for concurrent use; concurrent calls share fsyncs
// (group commit).
func (w *WAL) Append(rec Record) error {
	hdr, payload := frame(rec)
	w.mu.Lock()
	if _, err := w.buf.Write(hdr[:]); err != nil {
		w.mu.Unlock()
		return err
	}
	if _, err := w.buf.Write(payload); err != nil {
		w.mu.Unlock()
		return err
	}
	w.appendSeq++
	seq := w.appendSeq
	w.mu.Unlock()

	return w.syncTo(seq)
}

// syncTo blocks until an fsync covering record seq has completed. The
// caller that wins syncMu flushes and syncs everything appended so far —
// including records appended by callers queued behind it, which then
// return without syncing at all.
func (w *WAL) syncTo(seq uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.syncErr != nil {
		return w.syncErr
	}
	if w.syncedSeq >= seq {
		return nil // a peer's group fsync already covered this record
	}
	w.mu.Lock()
	covered := w.appendSeq
	err := w.buf.Flush()
	w.mu.Unlock()
	if err == nil {
		t0 := time.Now()
		err = w.f.Sync()
		w.fsyncHist.Since(t0)
		w.groupHist.Observe(covered - w.syncedSeq)
		w.syncs.Add(1)
	}
	if err != nil {
		w.syncErr = err
		return err
	}
	w.syncedSeq = covered
	return nil
}

// Syncs returns the number of fsyncs performed; with group commit this is
// typically far below the number of appended records.
func (w *WAL) Syncs() uint64 { return w.syncs.Load() }

// Appended returns the number of records appended through this handle.
func (w *WAL) Appended() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendSeq
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Close flushes and closes the underlying file.
func (w *WAL) Close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.buf.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
