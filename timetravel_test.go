// Time-travel read suite (§4.5): node programs pinned at past timestamps
// must see exactly the state as of that timestamp — across concurrent
// writes, batched vertex migration of the very vertices being queried, and
// version garbage collection — and reads behind the GC watermark must fail
// with a typed error rather than return wrong data.
package weaver_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"weaver"
	"weaver/internal/workload"
)

// timetravelConfig is a small cluster with aggressive GC so watermarks
// actually move during the test.
func timetravelConfig() weaver.Config {
	return weaver.Config{
		Gatekeepers:    1,
		Shards:         3,
		AnnouncePeriod: 200 * time.Microsecond,
		NopPeriod:      100 * time.Microsecond,
		GCPeriod:       2 * time.Millisecond,
		ProgTimeout:    10 * time.Second,
		Directory:      weaver.NewMappedDirectory(3),
	}
}

// TestTimeTravelExactAcrossMigrationAndGC pins a snapshot after a known
// write, keeps writing, batch-migrates the queried vertex, lets GC run,
// and asserts the pinned read returns exactly the as-of value throughout —
// then releases the pin and asserts reads eventually degrade to
// ErrStaleSnapshot, never to wrong data.
func TestTimeTravelExactAcrossMigrationAndGC(t *testing.T) {
	c, err := weaver.Open(timetravelConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.Client()

	const acct = weaver.VertexID("acct")
	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		tx.CreateVertex(acct)
		tx.SetProperty(acct, "n", "0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	inc := func() {
		t.Helper()
		if _, err := cl.RunTx(func(tx *weaver.Tx) error {
			d, ok, err := tx.GetVertex(acct)
			if err != nil || !ok {
				return fmt.Errorf("read acct: ok=%v err=%v", ok, err)
			}
			n, _ := strconv.Atoi(d.Props["n"])
			tx.SetProperty(acct, "n", strconv.Itoa(n+1))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		inc()
	}

	snap, err := c.SnapshotTS()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	for i := 0; i < 7; i++ {
		inc()
	}

	readAtSnap := func() (string, error) {
		d, ok, err := cl.At(snap.TS()).GetNode(acct)
		if err != nil {
			return "", err
		}
		if !ok {
			return "", fmt.Errorf("acct invisible at snapshot")
		}
		return d.Props["n"], nil
	}

	if got, err := readAtSnap(); err != nil || got != "5" {
		t.Fatalf("pinned read before migration: n=%q err=%v, want 5", got, err)
	}
	if d, ok, err := cl.GetNode(acct); err != nil || !ok || d.Props["n"] != "12" {
		t.Fatalf("current read: %+v ok=%v err=%v, want n=12", d, ok, err)
	}

	// Migrate the queried vertex; the full version history must move with
	// it (pre-PR, migration truncated history to the last record and this
	// read returned 12).
	home := c.Directory().Lookup(acct)
	if _, err := c.MigrateBatch([]weaver.Move{{Vertex: acct, Target: (home + 1) % 3}}); err != nil {
		t.Fatal(err)
	}
	if got, err := readAtSnap(); err != nil || got != "5" {
		t.Fatalf("pinned read after migration: n=%q err=%v, want 5", got, err)
	}

	// Let GC churn with the pin held: more writes, several GC periods.
	for i := 0; i < 5; i++ {
		inc()
		time.Sleep(3 * time.Millisecond)
	}
	if got, err := readAtSnap(); err != nil || got != "5" {
		t.Fatalf("pinned read after GC churn: n=%q err=%v, want 5", got, err)
	}

	// Release the pin: the watermark advances past the snapshot and reads
	// must degrade to the typed error — any read that still succeeds on
	// the way there must still be exact.
	snap.Close()
	deadline := time.Now().Add(20 * time.Second)
	for {
		got, err := readAtSnap()
		if err != nil {
			if !errors.Is(err, weaver.ErrStaleSnapshot) {
				t.Fatalf("released snapshot failed with untyped error: %v", err)
			}
			break
		}
		if got != "5" {
			t.Fatalf("released snapshot returned wrong data: n=%q, want 5 (or ErrStaleSnapshot)", got)
		}
		if time.Now().After(deadline) {
			t.Fatal("GC watermark never passed the released snapshot")
		}
		inc() // keep clocks and watermarks moving
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHistoryRetentionWindow checks Config.HistoryRetention without pins:
// an unpinned snapshot stays readable for the window, then fails typed.
func TestHistoryRetentionWindow(t *testing.T) {
	cfg := weaver.Config{
		Gatekeepers:      2,
		Shards:           2,
		AnnouncePeriod:   200 * time.Microsecond,
		NopPeriod:        100 * time.Microsecond,
		GCPeriod:         time.Millisecond,
		HistoryRetention: 1500 * time.Millisecond,
		ProgTimeout:      10 * time.Second,
	}
	c, err := weaver.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.Client()

	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		tx.CreateVertex("doc")
		tx.SetProperty("doc", "rev", "1")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	snap := cl.Snapshot() // unpinned: protected only by the retention window
	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		tx.SetProperty("doc", "rev", "2")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Inside the window the historical read must succeed and be exact.
	d, ok, err := cl.At(snap).GetNode("doc")
	if err != nil || !ok || d.Props["rev"] != "1" {
		t.Fatalf("read inside retention window: %+v ok=%v err=%v, want rev=1", d, ok, err)
	}

	// Once the window ages out, the read must degrade to the typed error;
	// successful reads on the way must remain exact.
	deadline := time.Now().Add(30 * time.Second)
	for {
		d, ok, err := cl.At(snap).GetNode("doc")
		if err != nil {
			if !errors.Is(err, weaver.ErrStaleSnapshot) {
				t.Fatalf("expired snapshot failed with untyped error: %v", err)
			}
			return
		}
		if !ok || d.Props["rev"] != "1" {
			t.Fatalf("expired snapshot returned wrong data: %+v ok=%v", d, ok)
		}
		if time.Now().After(deadline) {
			t.Fatal("retention window never expired")
		}
		// Keep commits flowing so clocks, watermark samples, and GC all
		// advance.
		if _, err := cl.RunTx(func(tx *weaver.Tx) error {
			tx.SetProperty("doc", "rev", "2")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTimeTravelUnderConcurrentWritesMigrationAndGC is the randomized
// acceptance test: concurrent writers increment registers, a migrator
// batch-moves the very registers being queried, GC runs throughout, and a
// snapshotter pins snapshots and records what it read at each. Every
// pinned read must be STABLE — re-reading any (snapshot, vertex) later,
// after more writes, migrations, and GC, must return the recorded value —
// and no read may ever fail untyped. Run with -race.
func TestTimeTravelUnderConcurrentWritesMigrationAndGC(t *testing.T) {
	seed := workload.TestSeed(t)
	cfg := weaver.Config{
		Gatekeepers:    2,
		Shards:         3,
		AnnouncePeriod: 200 * time.Microsecond,
		NopPeriod:      100 * time.Microsecond,
		GCPeriod:       2 * time.Millisecond,
		ProgTimeout:    10 * time.Second,
		Directory:      weaver.NewMappedDirectory(3),
	}
	c, err := weaver.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		registers = 12
		writers   = 4
	)
	reg := func(i int) weaver.VertexID { return weaver.VertexID(fmt.Sprintf("tr%d", i)) }
	setup := c.Client()
	if _, err := setup.RunTx(func(tx *weaver.Tx) error {
		for i := 0; i < registers; i++ {
			tx.CreateVertex(reg(i))
			tx.SetProperty(reg(i), "n", "0")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errCh := make(chan error, writers+2)
	var wg sync.WaitGroup

	// Writers: randomized register increments.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := c.Client()
			r := rand.New(rand.NewSource(seed + int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := reg(r.Intn(registers))
				if _, err := cl.RunTx(func(tx *weaver.Tx) error {
					d, ok, err := tx.GetVertex(v)
					if err != nil || !ok {
						return fmt.Errorf("writer read %q: ok=%v err=%v", v, ok, err)
					}
					n, _ := strconv.Atoi(d.Props["n"])
					tx.SetProperty(v, "n", strconv.Itoa(n+1))
					return nil
				}); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}

	// Migrator: batch-rotate sliding windows of the queried registers
	// between shards, one pause per batch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(seed ^ 0x6d69677261746f72)) // "migrator"
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			moves := make([]weaver.Move, 0, 4)
			perm := r.Perm(registers)[:4]
			for _, j := range perm {
				v := reg(j)
				moves = append(moves, weaver.Move{Vertex: v, Target: (c.Directory().Lookup(v) + 1 + r.Intn(2)) % 3})
			}
			if _, err := c.MigrateBatch(moves); err != nil {
				errCh <- fmt.Errorf("migrate batch %d: %w", i, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Snapshotter: pin snapshots, record first-read values, verify
	// stability of every earlier snapshot on each round.
	type obs struct {
		snap *weaver.Snapshot
		vals map[weaver.VertexID]string
	}
	var observations []obs
	defer func() {
		for _, o := range observations {
			o.snap.Close()
		}
	}()
	snapErr := func(err error) bool {
		if err == nil {
			return false
		}
		errCh <- err
		return true
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := c.Client()
		r := rand.New(rand.NewSource(seed ^ 0x736e617073686f74)) // "snapshot"
		for round := 0; round < 8; round++ {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := c.SnapshotTS()
			if snapErr(err) {
				return
			}
			o := obs{snap: snap, vals: make(map[weaver.VertexID]string)}
			rc := cl.At(snap.TS())
			for _, j := range r.Perm(registers)[:4] {
				d, ok, err := rc.GetNode(reg(j))
				if snapErr(err) {
					return
				}
				if !ok {
					snapErr(fmt.Errorf("round %d: %q invisible at fresh pinned snapshot", round, reg(j)))
					return
				}
				o.vals[reg(j)] = d.Props["n"]
			}
			observations = append(observations, o)
			// Stability: every earlier snapshot must still read exactly
			// what it read the first time, despite the writes, migrations
			// and GC since.
			for si, prev := range observations {
				prc := cl.At(prev.snap.TS())
				for v, want := range prev.vals {
					d, ok, err := prc.GetNode(v)
					if snapErr(err) {
						return
					}
					if !ok {
						snapErr(fmt.Errorf("snapshot %d drifted: %q vanished, first read %q", si, v, want))
						return
					}
					if d.Props["n"] != want {
						snapErr(fmt.Errorf("snapshot %d drifted: %q now %q, first read %q",
							si, v, d.Props["n"], want))
						return
					}
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Run the chaos for a bounded wall-clock window, then stop writers.
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Final pass: after the whole workload (and an apply fence), every
	// snapshot still answers exactly as first observed.
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	reader := c.Client()
	for si, o := range observations {
		rc := reader.At(o.snap.TS())
		for v, want := range o.vals {
			d, ok, err := rc.GetNode(v)
			if err != nil || !ok {
				t.Fatalf("final check: snapshot %d register %q unreadable (ok=%v err=%v), first read %q",
					si, v, ok, err, want)
			}
			if d.Props["n"] != want {
				t.Fatalf("final check: snapshot %d register %q = %q, first read %q", si, v, d.Props["n"], want)
			}
		}
	}
}
