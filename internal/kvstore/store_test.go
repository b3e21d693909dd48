package kvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// put and del commit a one-key transaction; get reads the current value.
func put(s *Store, key string, value []byte) error {
	tx := s.Begin()
	if err := tx.Put(key, value); err != nil {
		return err
	}
	return tx.Commit()
}

func del(s *Store, key string) error {
	tx := s.Begin()
	if err := tx.Delete(key); err != nil {
		return err
	}
	return tx.Commit()
}

func get(s *Store, key string) ([]byte, bool) {
	v, _, ok := s.GetVersioned(key)
	return v, ok
}

func TestBasicPutGetDelete(t *testing.T) {
	s := New()
	if _, ok := get(s, "a"); ok {
		t.Fatal("empty store must miss")
	}
	if err := put(s, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if v, ok := get(s, "a"); !ok || string(v) != "1" {
		t.Fatalf("got %q %v", v, ok)
	}
	if err := del(s, "a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(s, "a"); ok {
		t.Fatal("deleted key must miss")
	}
	if st := s.Stats(); st.Keys != 0 {
		t.Fatalf("live keys = %d, want 0", st.Keys)
	}
}

func TestTxReadYourWrites(t *testing.T) {
	s := New()
	tx := s.Begin()
	if err := tx.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tx.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("read-your-writes failed: %q %v %v", v, ok, err)
	}
	if err := tx.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tx.Get("k"); ok {
		t.Fatal("tx-local delete must hide key")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(s, "k"); ok {
		t.Fatal("commit of delete must leave key absent")
	}
}

func TestTxAtomicMultiKey(t *testing.T) {
	s := New()
	tx := s.Begin()
	tx.Put("x", []byte("1"))
	tx.Put("y", []byte("2"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	x, okx := get(s, "x")
	y, oky := get(s, "y")
	if !okx || !oky || string(x) != "1" || string(y) != "2" {
		t.Fatal("multi-key commit not atomic/visible")
	}
}

func TestTxConflictOnReadSet(t *testing.T) {
	s := New()
	put(s, "k", []byte("old"))
	t1 := s.Begin()
	if _, _, err := t1.Get("k"); err != nil {
		t.Fatal(err)
	}
	// Concurrent writer commits in between.
	t2 := s.Begin()
	t2.Put("k", []byte("new"))
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	t1.Put("other", []byte("z"))
	if err := t1.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("expected ErrConflict, got %v", err)
	}
	if _, ok := get(s, "other"); ok {
		t.Fatal("aborted tx must not apply writes")
	}
}

func TestTxConflictOnAbsentRead(t *testing.T) {
	s := New()
	t1 := s.Begin()
	if _, ok, _ := t1.Get("ghost"); ok {
		t.Fatal("ghost must be absent")
	}
	t2 := s.Begin()
	t2.Put("ghost", []byte("now"))
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	t1.Put("dep", []byte("1"))
	if err := t1.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("absence read must conflict with creation, got %v", err)
	}
}

func TestDeleteRecreateABA(t *testing.T) {
	s := New()
	put(s, "k", []byte("A"))
	t1 := s.Begin()
	if v, _, _ := t1.Get("k"); string(v) != "A" {
		t.Fatal("setup")
	}
	del(s, "k")
	put(s, "k", []byte("B"))
	t1.Put("out", []byte("derived-from-A"))
	if err := t1.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("delete+recreate must invalidate stale readers, got %v", err)
	}
}

func TestTxDoneErrors(t *testing.T) {
	s := New()
	tx := s.Begin()
	tx.Put("a", []byte("1"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit: %v", err)
	}
	if _, _, err := tx.Get("a"); !errors.Is(err, ErrTxDone) {
		t.Fatalf("get after done: %v", err)
	}
	if err := tx.Put("a", nil); !errors.Is(err, ErrTxDone) {
		t.Fatalf("put after done: %v", err)
	}
	if err := tx.Delete("a"); !errors.Is(err, ErrTxDone) {
		t.Fatalf("delete after done: %v", err)
	}
	tx2 := s.Begin()
	tx2.Abort()
	if err := tx2.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("commit after abort: %v", err)
	}
}

func TestScanPrefix(t *testing.T) {
	s := New()
	put(s, "vertex/1", []byte("a"))
	put(s, "vertex/2", []byte("b"))
	put(s, "edge/1", []byte("c"))
	del(s, "vertex/2")
	got := map[string]string{}
	s.ScanPrefix("vertex/", func(k string, v []byte) { got[k] = string(v) })
	if len(got) != 1 || got["vertex/1"] != "a" {
		t.Fatalf("scan got %v", got)
	}
}

// Bank-transfer serializability: concurrent transfers between accounts must
// conserve the total balance.
func TestConcurrentTransfersConserveTotal(t *testing.T) {
	s := New()
	const accounts = 10
	const initial = 100
	for i := 0; i < accounts; i++ {
		put(s, fmt.Sprintf("acct/%d", i), []byte{initial})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				from := fmt.Sprintf("acct/%d", r.Intn(accounts))
				to := fmt.Sprintf("acct/%d", r.Intn(accounts))
				if from == to {
					continue
				}
				tx := s.Begin()
				fv, _, _ := tx.Get(from)
				tv, _, _ := tx.Get(to)
				if len(fv) == 0 || fv[0] == 0 {
					tx.Abort()
					continue
				}
				tx.Put(from, []byte{fv[0] - 1})
				tx.Put(to, []byte{tv[0] + 1})
				_ = tx.Commit() // conflicts are fine; conservation must hold
			}
		}(int64(w))
	}
	wg.Wait()
	total := 0
	for i := 0; i < accounts; i++ {
		v, ok := get(s, fmt.Sprintf("acct/%d", i))
		if !ok {
			t.Fatalf("account %d vanished", i)
		}
		total += int(v[0])
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d (serializability violated)", total, accounts*initial)
	}
}

// Property: a randomized mix of transactions over few keys behaves like
// some serial execution — we verify the weaker but mechanical invariant
// that every committed read-modify-write increment is preserved (lost
// updates are impossible under OCC).
func TestQuickNoLostUpdates(t *testing.T) {
	s := New()
	put(s, "ctr", []byte{0, 0})
	var committed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tx := s.Begin()
				v, _, _ := tx.Get("ctr")
				n := uint16(v[0])<<8 | uint16(v[1])
				n++
				tx.Put("ctr", []byte{byte(n >> 8), byte(n)})
				if tx.Commit() == nil {
					mu.Lock()
					committed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	v, _ := get(s, "ctr")
	n := int64(uint16(v[0])<<8 | uint16(v[1]))
	if n != committed {
		t.Fatalf("counter %d != committed increments %d", n, committed)
	}
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	s, err := NewDurable(path)
	if err != nil {
		t.Fatal(err)
	}
	put(s, "a", []byte("1"))
	tx := s.Begin()
	tx.Put("b", []byte("2"))
	tx.Put("c", []byte("3"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	del(s, "a")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewDurable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := get(s2, "a"); ok {
		t.Fatal("deleted key resurrected after replay")
	}
	for k, want := range map[string]string{"b": "2", "c": "3"} {
		if v, ok := get(s2, k); !ok || string(v) != want {
			t.Fatalf("recovered %s = %q (%v), want %q", k, v, ok, want)
		}
	}
}

func TestWALEmptyReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurable(filepath.Join(dir, "empty.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Keys != 0 {
		t.Fatalf("fresh durable store has %d keys", st.Keys)
	}
}

func TestStatsCounts(t *testing.T) {
	s := New()
	put(s, "a", []byte("1"))
	get(s, "a")
	tx := s.Begin()
	tx.Get("a")
	tx.Put("a", []byte("2"))
	tx.Commit()
	st := s.Stats()
	if st.Commits != 2 || st.Gets != 2 || st.Keys != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

// TestTxReadsAreRepeatable: once a transaction has read a key, a second
// read after a concurrent commit moved the key's version is a conflict —
// through Get and GetVersioned alike, for changed, deleted and newly
// created keys — while an unchanged key re-reads freely.
func TestTxReadsAreRepeatable(t *testing.T) {
	s := New()
	put(s, "changed", []byte("1"))
	put(s, "deleted", []byte("1"))
	put(s, "stable", []byte("1"))

	tx := s.Begin()
	defer tx.Abort()
	for _, k := range []string{"changed", "deleted", "stable", "created"} {
		if _, _, err := tx.Get(k); err != nil {
			t.Fatalf("first read of %q: %v", k, err)
		}
	}
	put(s, "changed", []byte("2"))
	del(s, "deleted")
	put(s, "created", []byte("1"))

	for _, k := range []string{"changed", "deleted", "created"} {
		if _, _, err := tx.Get(k); !errors.Is(err, ErrConflict) {
			t.Fatalf("Get(%q) after concurrent commit: %v, want ErrConflict", k, err)
		}
		if _, _, _, err := tx.GetVersioned(k); !errors.Is(err, ErrConflict) {
			t.Fatalf("GetVersioned(%q) after concurrent commit: %v, want ErrConflict", k, err)
		}
	}
	if v, ok, err := tx.Get("stable"); err != nil || !ok || string(v) != "1" {
		t.Fatalf("unchanged key must re-read: %q %v %v", v, ok, err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit after a moved read: %v, want ErrConflict", err)
	}
}
