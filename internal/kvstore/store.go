// Package kvstore implements Weaver's backing store (§3.2): a transactional
// key-value store standing in for HyperDex Warp [21]. It provides
// linearizable multi-key ACID transactions with optimistic concurrency
// control: transactions buffer writes, record the version of every key they
// read, and validate at commit under per-bucket locks taken in a fixed
// order (a simplification of Warp's acyclic-transactions protocol that
// preserves its contract: serializable multi-key transactions that abort
// when a concurrent transaction modified data read by this one).
//
// The store plays two roles in Weaver (§3.2): durable, fault-tolerant home
// of the graph data (vertices, edges, properties, per-vertex last-update
// timestamps), and directory mapping each vertex to its shard server. An
// optional write-ahead log provides durability across process restarts.
//
// Deleted keys leave tombstones so that per-key versions are monotonic for
// the lifetime of the store; without them a delete+recreate pair could
// reset a version and let a stale reader pass validation (ABA).
package kvstore

import (
	"errors"
	"fmt"
	"hash/maphash"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"weaver/internal/obs"
	"weaver/internal/snapshot"
)

// ErrConflict is returned by Tx.Commit (and by a repeated Tx read, see
// Tx.GetVersioned) when a key in the read set was modified by a
// concurrently committed transaction.
var ErrConflict = errors.New("kvstore: transaction conflict")

// ErrTxDone is returned when a finished transaction is reused.
var ErrTxDone = errors.New("kvstore: transaction already finished")

// ErrNotDurable is returned by Checkpoint on a store opened without a WAL.
var ErrNotDurable = errors.New("kvstore: store is not durable (no WAL)")

const numBuckets = 64

type entry struct {
	value   []byte
	version uint64
	dead    bool // tombstone: key deleted, version preserved
}

type bucket struct {
	mu    sync.RWMutex
	items map[string]entry
}

// Stats counts store activity.
type Stats struct {
	Commits   uint64
	Aborts    uint64
	Conflicts uint64
	Gets      uint64
	Keys      int // live (non-tombstone) keys
}

// Store is a sharded in-memory transactional KV store with optional WAL
// and checkpointing (see Checkpoint).
type Store struct {
	buckets [numBuckets]bucket
	seed    maphash.Seed

	// commitMu fences logged mutations against checkpoints: every path
	// that updates memory and appends to the WAL (Put, Delete, Tx.Commit,
	// BulkPut) holds it shared for the whole update, and Checkpoint holds
	// it exclusively while it scans the buckets and rotates the WAL — so
	// a snapshot can never contain half a transaction, and no record can
	// land in a log that the checkpoint is about to truncate without also
	// being in the snapshot.
	commitMu sync.RWMutex
	wal      *WAL
	walBase  string // Config path; snapshot and era file names derive from it
	snapSeq  uint64 // sequence of the snapshot the current WAL era follows

	recovery    RecoveryStats
	eraReplayed uint64 // WAL records replayed at open for the current era

	// WAL observability handles, carried across WAL-era rotations (each
	// Checkpoint opens a fresh log; see InstrumentWAL).
	walFsync *obs.Histogram
	walGroup *obs.Histogram

	commits   atomic.Uint64
	aborts    atomic.Uint64
	conflicts atomic.Uint64
	gets      atomic.Uint64
}

// RecoveryStats reports what NewDurable did to rebuild state: which
// snapshot it restored and how many WAL records it replayed on top. A
// bounded TailRecords (instead of the full commit history) is the point of
// checkpointing.
type RecoveryStats struct {
	// SnapshotSeq is the restored snapshot's sequence (0 = none).
	SnapshotSeq uint64
	// SnapshotEntries is the number of entries loaded from the snapshot.
	SnapshotEntries uint64
	// TailRecords is the number of WAL records replayed after the
	// snapshot.
	TailRecords uint64
	// TornSnapshots counts newer snapshots that were skipped because a
	// crash left them torn (bad checksum, missing segment, ...).
	TornSnapshots int
}

// CheckpointStats reports one Checkpoint call.
type CheckpointStats struct {
	// Seq is the new snapshot's sequence number.
	Seq uint64
	// Entries is the number of entries written (live keys + tombstones).
	Entries uint64
	// Segments is the number of data segments written.
	Segments int
	// WALRecordsDropped is how many logged records the truncated WAL era
	// contained — the replay work the checkpoint saves future restarts.
	WALRecordsDropped uint64
}

// New returns an empty store with no durability.
func New() *Store {
	s := &Store{seed: maphash.MakeSeed()}
	for i := range s.buckets {
		s.buckets[i].items = make(map[string]entry)
	}
	return s
}

// eraWALPath names the log file of the WAL era following snapshot seq.
// Era 0 — before any checkpoint — is the bare path itself, which keeps
// pre-checkpoint deployments and tests working unchanged.
func eraWALPath(base string, seq uint64) string {
	if seq == 0 {
		return base
	}
	return fmt.Sprintf("%s.wal-%d", base, seq)
}

// NewDurable opens (or creates) the durable store rooted at path: it logs
// committed transactions to a WAL there, first restoring the newest valid
// checkpoint snapshot (if any) and replaying the WAL tail on top.
//
// Recovery order (§4.3, extended with checkpoints): find the newest
// snapshot whose manifest and segment checksums verify — a torn snapshot
// from a crash mid-checkpoint is skipped, falling back to the previous
// one, whose WAL was deliberately not truncated until the newer snapshot
// was fully durable — load it, then replay only that snapshot's WAL era.
// The work done is reported by Recovery.
func NewDurable(path string) (*Store, error) {
	s := New()
	s.walBase = path

	for _, seq := range snapshot.Seqs(path) {
		n, err := s.loadSnapshot(seq)
		if err != nil {
			if errors.Is(err, snapshot.ErrCorrupt) {
				s.recovery.TornSnapshots++
				s.resetBuckets()
				continue
			}
			return nil, err
		}
		s.snapSeq = seq
		s.recovery.SnapshotSeq = seq
		s.recovery.SnapshotEntries = n
		break
	}

	w, err := OpenWAL(eraWALPath(path, s.snapSeq))
	if err != nil {
		return nil, err
	}
	tail, err := w.Replay(func(rec Record) {
		s.applyUnsynchronized(rec.Writes, rec.Deletes)
	})
	if err != nil {
		w.Close()
		return nil, err
	}
	s.recovery.TailRecords = uint64(tail)
	s.eraReplayed = uint64(tail)
	s.wal = w
	s.removeStaleEras()
	return s, nil
}

// loadSnapshot restores one snapshot into the (pre-sharing) store,
// installing entries verbatim — values, versions and tombstones — so OCC
// version monotonicity survives the checkpoint/restore cycle.
func (s *Store) loadSnapshot(seq uint64) (uint64, error) {
	var n uint64
	_, err := snapshot.Load(s.walBase, seq, func(e snapshot.Entry) error {
		b := s.bucketOf(e.Key)
		b.items[e.Key] = entry{value: e.Value, version: e.Version, dead: e.Dead}
		n++
		return nil
	})
	return n, err
}

// resetBuckets discards partially loaded state (torn snapshot fallback).
func (s *Store) resetBuckets() {
	for i := range s.buckets {
		s.buckets[i].items = make(map[string]entry)
	}
}

// removeStaleEras deletes snapshots and WAL eras superseded by the one
// recovery chose: older checkpoints, their logs, and any newer snapshot
// that failed validation. Runs after recovery succeeded, so everything
// removed is either fully contained in the restored state or torn.
func (s *Store) removeStaleEras() {
	for _, seq := range snapshot.Seqs(s.walBase) {
		if seq != s.snapSeq {
			snapshot.Remove(s.walBase, seq)
			if seq > 0 && seq < s.snapSeq {
				os.Remove(eraWALPath(s.walBase, seq))
			}
		}
	}
	if s.snapSeq > 0 {
		os.Remove(eraWALPath(s.walBase, 0))
	}
}

// Recovery reports what NewDurable did to rebuild this store.
func (s *Store) Recovery() RecoveryStats { return s.recovery }

// InstrumentWAL installs fsync-duration and group-commit-size histograms
// on the store's write-ahead log, surviving WAL-era rotation (Checkpoint
// re-instruments each fresh log). No-op on a non-durable store. Call
// before the store is shared.
func (s *Store) InstrumentWAL(fsync, group *obs.Histogram) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.walFsync, s.walGroup = fsync, group
	if s.wal != nil {
		s.wal.Instrument(fsync, group)
	}
}

// Checkpoint writes a full snapshot of the store and truncates the WAL,
// so the next open restores snapshot + tail instead of replaying the full
// history. Commits are frozen for the duration (commitMu); reads proceed.
//
// Crash safety: the snapshot's segments are fsynced before its manifest is
// atomically published, and the previous era's WAL is deleted only after
// the new era's log exists. A crash at any point leaves either the old
// snapshot + complete old WAL, or the new snapshot (+ empty new WAL) —
// never a state missing committed transactions. A torn new snapshot is
// detected by checksum at recovery and falls back to the old chain.
func (s *Store) Checkpoint() (CheckpointStats, error) {
	if s.wal == nil {
		return CheckpointStats{}, ErrNotDurable
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()

	seq := s.snapSeq + 1
	man, err := snapshot.Write(s.walBase, seq, snapshot.DefaultSegmentEntries, map[string]string{"origin": "checkpoint"},
		func(yield func(snapshot.Entry) error) error {
			for i := range s.buckets {
				b := &s.buckets[i]
				b.mu.RLock()
				for k, e := range b.items {
					err := yield(snapshot.Entry{Key: k, Value: e.value, Version: e.version, Dead: e.dead})
					if err != nil {
						b.mu.RUnlock()
						return err
					}
				}
				b.mu.RUnlock()
			}
			return nil
		})
	if err != nil {
		return CheckpointStats{}, fmt.Errorf("kvstore: checkpoint: %w", err)
	}

	nw, err := OpenWAL(eraWALPath(s.walBase, seq))
	if err != nil {
		// The new snapshot is durable but its era has no log; recovery
		// would handle this (empty tail), yet without an appendable log
		// the store cannot continue — undo and keep the old era.
		snapshot.Remove(s.walBase, seq)
		return CheckpointStats{}, fmt.Errorf("kvstore: checkpoint: open new WAL era: %w", err)
	}

	old, oldSeq := s.wal, s.snapSeq
	dropped := s.eraReplayed + old.Appended()
	nw.Instrument(s.walFsync, s.walGroup)
	s.wal = nw
	s.snapSeq = seq
	s.eraReplayed = 0
	old.Close()
	os.Remove(eraWALPath(s.walBase, oldSeq))
	snapshot.Remove(s.walBase, oldSeq)

	return CheckpointStats{
		Seq:               seq,
		Entries:           man.Entries,
		Segments:          len(man.Segments),
		WALRecordsDropped: dropped,
	}, nil
}

// KV is one key-value pair for BulkPut.
type KV struct {
	Key   string
	Value []byte
}

// BulkPut installs entries directly, bypassing optimistic concurrency
// control and the per-record WAL path — the backing-store half of bulk
// ingest (weaver.Cluster.BulkLoad). Existing keys are overwritten with a
// version bump. The records are NOT logged: on a durable store the caller
// must follow up with Checkpoint to make them crash-safe (Cluster.BulkLoad
// does).
func (s *Store) BulkPut(kvs []KV) {
	s.commitMu.RLock()
	defer s.commitMu.RUnlock()
	// Group by bucket so each lock is taken once.
	perBucket := make([][]int, numBuckets)
	for i := range kvs {
		b := s.bucketIdx(kvs[i].Key)
		perBucket[b] = append(perBucket[b], i)
	}
	for bi, idxs := range perBucket {
		if len(idxs) == 0 {
			continue
		}
		b := &s.buckets[bi]
		b.mu.Lock()
		for _, i := range idxs {
			e := b.items[kvs[i].Key]
			b.items[kvs[i].Key] = entry{value: kvs[i].Value, version: e.version + 1}
		}
		b.mu.Unlock()
	}
	s.commits.Add(1)
}

// Close releases the WAL, if any.
func (s *Store) Close() error {
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}

func (s *Store) bucketIdx(key string) int {
	var h maphash.Hash
	h.SetSeed(s.seed)
	h.WriteString(key)
	return int(h.Sum64() % numBuckets)
}

func (s *Store) bucketOf(key string) *bucket { return &s.buckets[s.bucketIdx(key)] }

// Get returns the current value of key outside any transaction.
func (s *Store) Get(key string) ([]byte, bool) {
	s.gets.Add(1)
	b := s.bucketOf(key)
	b.mu.RLock()
	e, ok := b.items[key]
	b.mu.RUnlock()
	if !ok || e.dead {
		return nil, false
	}
	return e.value, true
}

// GetVersioned returns the current value of key and its version. Versions
// increase monotonically per key (including through deletions); callers use
// them for optimistic validation across separate transactions, e.g. Weaver
// clients record versions at read time and gatekeepers re-validate them at
// commit time.
func (s *Store) GetVersioned(key string) (value []byte, version uint64, ok bool) {
	s.gets.Add(1)
	b := s.bucketOf(key)
	b.mu.RLock()
	e, found := b.items[key]
	b.mu.RUnlock()
	if !found || e.dead {
		return nil, e.version, false
	}
	return e.value, e.version, true
}

// Put sets key to value as a single-key transaction. On a durable store
// the write is logged and fsynced BEFORE it becomes visible; a logging
// failure leaves memory untouched and is returned.
func (s *Store) Put(key string, value []byte) error {
	s.commitMu.RLock()
	defer s.commitMu.RUnlock()
	b := s.bucketOf(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.wal != nil {
		if err := s.wal.Append(Record{Writes: map[string][]byte{key: value}}); err != nil {
			s.aborts.Add(1)
			return err
		}
	}
	e := b.items[key]
	b.items[key] = entry{value: value, version: e.version + 1}
	s.commits.Add(1)
	return nil
}

// Delete removes key as a single-key transaction, leaving a tombstone.
// Logged-before-applied like Put.
func (s *Store) Delete(key string) error {
	s.commitMu.RLock()
	defer s.commitMu.RUnlock()
	b := s.bucketOf(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.wal != nil {
		if err := s.wal.Append(Record{Deletes: []string{key}}); err != nil {
			s.aborts.Add(1)
			return err
		}
	}
	e := b.items[key]
	b.items[key] = entry{version: e.version + 1, dead: true}
	s.commits.Add(1)
	return nil
}

// applyUnsynchronized applies writes and deletes bypassing concurrency
// control; only for WAL replay before the store is shared.
func (s *Store) applyUnsynchronized(writes map[string][]byte, deletes []string) {
	for k, v := range writes {
		b := s.bucketOf(k)
		e := b.items[k]
		b.items[k] = entry{value: v, version: e.version + 1}
	}
	for _, k := range deletes {
		b := s.bucketOf(k)
		e := b.items[k]
		b.items[k] = entry{version: e.version + 1, dead: true}
	}
}

// Stats returns a snapshot of store activity counters.
func (s *Store) Stats() Stats {
	n := 0
	for i := range s.buckets {
		b := &s.buckets[i]
		b.mu.RLock()
		for _, e := range b.items {
			if !e.dead {
				n++
			}
		}
		b.mu.RUnlock()
	}
	return Stats{
		Commits:   s.commits.Load(),
		Aborts:    s.aborts.Load(),
		Conflicts: s.conflicts.Load(),
		Gets:      s.gets.Load(),
		Keys:      n,
	}
}

// ScanPrefix calls fn for every live key with the given prefix. The scan
// holds one bucket read-lock at a time; it is consistent only when
// concurrent writers are quiesced (Weaver calls it during recovery, behind
// the cluster manager's epoch barrier, §4.3). fn must not call back into
// the store. The in-memory scan cannot fail; the error is Backing's.
func (s *Store) ScanPrefix(prefix string, fn func(key string, value []byte)) error {
	for i := range s.buckets {
		b := &s.buckets[i]
		b.mu.RLock()
		for k, e := range b.items {
			if !e.dead && strings.HasPrefix(k, prefix) {
				fn(k, e.value)
			}
		}
		b.mu.RUnlock()
	}
	return nil
}

// Begin starts a transaction.
func (s *Store) Begin() *Tx {
	return &Tx{
		s:      s,
		reads:  make(map[string]uint64),
		writes: make(map[string][]byte),
		dels:   make(map[string]struct{}),
	}
}

// Tx is an optimistic multi-key transaction. Not safe for concurrent use.
type Tx struct {
	s      *Store
	reads  map[string]uint64
	writes map[string][]byte
	dels   map[string]struct{}
	done   bool
}

// Get is GetVersioned without the version.
func (t *Tx) Get(key string) ([]byte, bool, error) {
	v, _, ok, err := t.GetVersioned(key)
	return v, ok, err
}

// GetVersioned reads key within the transaction: buffered writes are
// visible (read-your-writes, reported as version 0); otherwise the
// committed value and its version are returned (version 0 when the key
// has never existed) and the version is recorded for commit-time
// validation. Reads are repeatable: re-reading a key whose committed
// version has moved since this transaction first read it returns
// ErrConflict — the transaction could never commit, and a caller that
// validated the first read must not go on to act on a newer value.
func (t *Tx) GetVersioned(key string) (value []byte, version uint64, ok bool, err error) {
	if t.done {
		return nil, 0, false, ErrTxDone
	}
	if _, del := t.dels[key]; del {
		return nil, 0, false, nil
	}
	if v, buffered := t.writes[key]; buffered {
		return v, 0, true, nil
	}
	t.s.gets.Add(1)
	b := t.s.bucketOf(key)
	b.mu.RLock()
	e := b.items[key]
	b.mu.RUnlock()
	if first, seen := t.reads[key]; !seen {
		t.reads[key] = e.version
	} else if first != e.version {
		return nil, 0, false, ErrConflict
	}
	if e.dead || e.version == 0 {
		return nil, e.version, false, nil
	}
	return e.value, e.version, true, nil
}

// Put buffers a write of key.
func (t *Tx) Put(key string, value []byte) error {
	if t.done {
		return ErrTxDone
	}
	delete(t.dels, key)
	t.writes[key] = value
	return nil
}

// Delete buffers a deletion of key.
func (t *Tx) Delete(key string) error {
	if t.done {
		return ErrTxDone
	}
	delete(t.writes, key)
	t.dels[key] = struct{}{}
	return nil
}

// Abort discards the transaction.
func (t *Tx) Abort() {
	if !t.done {
		t.done = true
		t.s.aborts.Add(1)
	}
}

// Commit validates the read set and atomically applies the write set.
// On conflict it returns ErrConflict and the transaction is finished; the
// caller retries with a fresh transaction (and, in Weaver's gatekeeper, a
// fresh timestamp, §4.2).
func (t *Tx) Commit() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true

	// Shared checkpoint fence: the whole validate-apply-log sequence must
	// land on one side of a checkpoint (see Store.commitMu).
	t.s.commitMu.RLock()
	defer t.s.commitMu.RUnlock()

	// Lock every involved bucket in index order to avoid deadlock with
	// concurrent committers.
	var need [numBuckets]bool
	for k := range t.reads {
		need[t.s.bucketIdx(k)] = true
	}
	for k := range t.writes {
		need[t.s.bucketIdx(k)] = true
	}
	for k := range t.dels {
		need[t.s.bucketIdx(k)] = true
	}
	var locked []*bucket
	for i := range need {
		if need[i] {
			b := &t.s.buckets[i]
			b.mu.Lock()
			locked = append(locked, b)
		}
	}
	defer func() {
		for _, b := range locked {
			b.mu.Unlock()
		}
	}()

	// Validate: every read version must still be current.
	for k, ver := range t.reads {
		if t.s.bucketOf(k).items[k].version != ver {
			t.s.conflicts.Add(1)
			t.s.aborts.Add(1)
			return ErrConflict
		}
	}

	// Write-ahead: log and fsync the record before any of it becomes
	// visible (the involved buckets stay locked, so log order equals
	// visibility order for conflicting keys). A logging failure aborts
	// the transaction with nothing applied — an acknowledged commit is
	// never at the mercy of a sticky WAL error.
	var delList []string
	for k := range t.dels {
		e := t.s.bucketOf(k).items[k]
		if e.version != 0 && !e.dead {
			delList = append(delList, k)
		}
	}
	if t.s.wal != nil && (len(t.writes) > 0 || len(delList) > 0) {
		sort.Strings(delList)
		if err := t.s.wal.Append(Record{Writes: t.writes, Deletes: delList}); err != nil {
			t.s.aborts.Add(1)
			return fmt.Errorf("kvstore: write-ahead log: %w", err)
		}
	}

	// Apply.
	for k, v := range t.writes {
		b := t.s.bucketOf(k)
		e := b.items[k]
		b.items[k] = entry{value: v, version: e.version + 1}
	}
	for k := range t.dels {
		b := t.s.bucketOf(k)
		e := b.items[k]
		b.items[k] = entry{version: e.version + 1, dead: true}
	}
	t.s.commits.Add(1)
	return nil
}
