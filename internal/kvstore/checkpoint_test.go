package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"weaver/internal/snapshot"
)

func reopen(t *testing.T, path string) *Store {
	t.Helper()
	s, err := NewDurable(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func wantKV(t *testing.T, s *Store, key, want string) {
	t.Helper()
	v, ok := get(s, key)
	if !ok || string(v) != want {
		t.Fatalf("get %q = %q (ok=%v), want %q", key, v, ok, want)
	}
}

// TestCheckpointBoundedReplay is the core checkpoint contract: reopening
// after a checkpoint replays only the WAL tail written since it.
func TestCheckpointBoundedReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s := reopen(t, path)
	const before, after = 40, 7
	for i := 0; i < before; i++ {
		put(s, fmt.Sprintf("pre/%d", i), []byte("x"))
	}
	del(s, "pre/0") // a tombstone must survive the checkpoint too

	st, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 1 || st.Entries == 0 || st.WALRecordsDropped != before+1 {
		t.Fatalf("checkpoint stats %+v", st)
	}
	for i := 0; i < after; i++ {
		put(s, fmt.Sprintf("post/%d", i), []byte("y"))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := reopen(t, path)
	rec := s2.Recovery()
	if rec.SnapshotSeq != 1 || rec.TailRecords != after || rec.TornSnapshots != 0 {
		t.Fatalf("recovery %+v: want snapshot 1 with %d tail records", rec, after)
	}
	for i := 1; i < before; i++ {
		wantKV(t, s2, fmt.Sprintf("pre/%d", i), "x")
	}
	for i := 0; i < after; i++ {
		wantKV(t, s2, fmt.Sprintf("post/%d", i), "y")
	}
	if _, ok := get(s2, "pre/0"); ok {
		t.Fatal("tombstoned key resurrected by checkpoint restore")
	}

	// A second checkpoint supersedes the first and cleans up its files.
	if st, err = s2.Checkpoint(); err != nil || st.Seq != 2 {
		t.Fatalf("second checkpoint: %+v, %v", st, err)
	}
	if _, err := os.Stat(snapshot.ManifestPath(path, 1)); !os.IsNotExist(err) {
		t.Fatalf("snapshot 1 manifest not cleaned up: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("era-0 WAL not cleaned up: %v", err)
	}
}

// TestTornSnapshotFallsBack simulates a crash mid-checkpoint: the newest
// snapshot is torn (truncated segment) and recovery must fall back to the
// previous snapshot plus its complete, un-truncated WAL — losing nothing.
func TestTornSnapshotFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s := reopen(t, path)
	put(s, "a", []byte("1"))
	if _, err := s.Checkpoint(); err != nil { // snapshot 1; WAL era 1
		t.Fatal(err)
	}
	put(s, "b", []byte("2")) // lives only in WAL era 1
	s.Close()

	// Fabricate the debris of a checkpoint that crashed partway: snapshot
	// 2 with a valid manifest but a torn segment. (The real Checkpoint
	// publishes the manifest only after segments are synced; a crash can
	// still tear a segment that the kernel never flushed.)
	man, err := snapshot.Write(path, 2, 0, nil, func(yield func(snapshot.Entry) error) error {
		return yield(snapshot.Entry{Key: "a", Value: []byte("STALE"), Version: 9})
	})
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(filepath.Dir(path), man.Segments[0].Name)
	raw, _ := os.ReadFile(seg)
	if err := os.WriteFile(seg, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := reopen(t, path)
	rec := s2.Recovery()
	if rec.TornSnapshots != 1 || rec.SnapshotSeq != 1 || rec.TailRecords != 1 {
		t.Fatalf("recovery %+v: want torn=1 snapshot=1 tail=1", rec)
	}
	wantKV(t, s2, "a", "1")
	wantKV(t, s2, "b", "2")
}

// TestTornManifestFallsBack: crash before the manifest rename left either
// no manifest (only segments) or a garbage manifest — both must fall back.
func TestTornManifestFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s := reopen(t, path)
	put(s, "k", []byte("v"))
	s.Close()

	// Garbage manifest for a phantom snapshot 5.
	if err := os.WriteFile(snapshot.ManifestPath(path, 5), []byte("torn garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, path)
	if rec := s2.Recovery(); rec.TornSnapshots != 1 || rec.SnapshotSeq != 0 || rec.TailRecords != 1 {
		t.Fatalf("recovery %+v: want torn=1 snapshot=0 tail=1", rec)
	}
	wantKV(t, s2, "k", "v")
	// The torn snapshot's debris is cleaned up after successful recovery.
	if _, err := os.Stat(snapshot.ManifestPath(path, 5)); !os.IsNotExist(err) {
		t.Fatalf("torn manifest not cleaned up: %v", err)
	}
}

// TestCrashAfterManifestBeforeNewWAL covers the window where the new
// snapshot is fully published but the new WAL era was never created: the
// snapshot alone is the complete committed state (commits are frozen
// throughout Checkpoint).
func TestCrashAfterManifestBeforeNewWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s := reopen(t, path)
	put(s, "a", []byte("1"))
	put(s, "b", []byte("2"))
	s.Close()

	// Write snapshot 1 out-of-band (as Checkpoint would) but "crash"
	// before creating WAL era 1 or deleting era 0.
	src := reopen(t, path)
	_, err := snapshot.Write(path, 1, 0, nil, func(yield func(snapshot.Entry) error) error {
		// The real entries, versions included.
		for i := range src.buckets {
			b := &src.buckets[i]
			for k, e := range b.items {
				if err := yield(snapshot.Entry{Key: k, Value: e.value, Version: e.version, Dead: e.dead}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	src.Close()

	s2 := reopen(t, path)
	if rec := s2.Recovery(); rec.SnapshotSeq != 1 || rec.TailRecords != 0 {
		t.Fatalf("recovery %+v: want snapshot=1 tail=0", rec)
	}
	wantKV(t, s2, "a", "1")
	wantKV(t, s2, "b", "2")
}

// TestCheckpointUnderConcurrentCommits hammers the store with writers
// while checkpointing repeatedly; after reopening, every committed key
// must be present (race-detector clean, and no committed write may fall
// between a snapshot and its WAL era).
func TestCheckpointUnderConcurrentCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s := reopen(t, path)
	const writers, perWriter = 8, 60
	var wg sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				for {
					tx := s.Begin()
					tx.Put(fmt.Sprintf("w%d/%d", wtr, i), []byte("v"))
					if err := tx.Commit(); err == nil {
						break
					}
				}
			}
		}(wtr)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			if _, err := s.Checkpoint(); err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	s.Close()

	s2 := reopen(t, path)
	for wtr := 0; wtr < writers; wtr++ {
		for i := 0; i < perWriter; i++ {
			wantKV(t, s2, fmt.Sprintf("w%d/%d", wtr, i), "v")
		}
	}
}

// TestBulkPutDurableViaCheckpoint: BulkPut bypasses the WAL by contract;
// a checkpoint afterwards makes it durable.
func TestBulkPutDurableViaCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s := reopen(t, path)
	kvs := make([]KV, 500)
	for i := range kvs {
		kvs[i] = KV{Key: fmt.Sprintf("bulk/%d", i), Value: []byte{byte(i)}}
	}
	s.BulkPut(kvs)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := reopen(t, path)
	if rec := s2.Recovery(); rec.SnapshotSeq != 1 {
		t.Fatalf("recovery %+v", rec)
	}
	for i := range kvs {
		v, ok := get(s2, kvs[i].Key)
		if !ok || len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("bulk key %d = %v (ok=%v)", i, v, ok)
		}
	}
}

// TestBulkPutOverwriteBumpsVersion: overwriting via BulkPut must keep
// per-key versions monotonic for OCC validation.
func TestBulkPutOverwriteBumpsVersion(t *testing.T) {
	s := New()
	put(s, "k", []byte("old"))
	_, v1, _ := s.GetVersioned("k")
	s.BulkPut([]KV{{Key: "k", Value: []byte("new")}})
	val, v2, ok := s.GetVersioned("k")
	if !ok || string(val) != "new" || v2 <= v1 {
		t.Fatalf("after BulkPut: %q v%d (ok=%v), want new value with version > %d", val, v2, ok, v1)
	}
}

// TestCheckpointNotDurable: in-memory stores cannot checkpoint.
func TestCheckpointNotDurable(t *testing.T) {
	s := New()
	if _, err := s.Checkpoint(); err != ErrNotDurable {
		t.Fatalf("checkpoint on non-durable store: %v", err)
	}
}

// TestTornWALTailTruncated: a torn tail must be cut off at recovery so
// post-recovery appends land directly after the valid prefix — never
// behind garbage that a later recovery would trip over (or mistake for a
// clean end, silently dropping everything appended after it).
func TestTornWALTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s := reopen(t, path)
	put(s, "a", []byte("1"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a complete header promising 50 payload
	// bytes, followed by only 2.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 50, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02})
	f.Close()

	s2 := reopen(t, path)
	if rec := s2.Recovery(); rec.TailRecords != 1 {
		t.Fatalf("recovery %+v: want the 1 intact record", rec)
	}
	put(s2, "b", []byte("2")) // must land after the truncated prefix
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3 := reopen(t, path)
	if rec := s3.Recovery(); rec.TailRecords != 2 {
		t.Fatalf("second recovery %+v: want both records", rec)
	}
	wantKV(t, s3, "a", "1")
	wantKV(t, s3, "b", "2")
}

// TestForeignFileIsNotAWAL: a file that holds data but lacks the WAL magic
// is a typed error on open — never appended to, never reinterpreted — and
// it is left byte-for-byte as it was.
func TestForeignFileIsNotAWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "foreign.wal")
	foreign := []byte("some other program's bytes")
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurable(path); !errors.Is(err, ErrNotWAL) {
		t.Fatalf("NewDurable over a foreign file: %v, want ErrNotWAL", err)
	}
	if got, _ := os.ReadFile(path); string(got) != string(foreign) {
		t.Fatalf("rejected file was modified: %q", got)
	}
}
