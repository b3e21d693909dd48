// Time-travel read suite (§4.5): node programs pinned at past timestamps
// must see exactly the state as of that timestamp — across concurrent
// writes, batched vertex migration of the very vertices being queried, and
// version garbage collection — and reads behind the GC watermark must fail
// with a typed error rather than return wrong data.
package weaver_test

import (
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"weaver"
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
