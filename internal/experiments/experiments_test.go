package experiments

import (
	"testing"
	"time"
)

// tiny returns the smallest meaningful scales so the full experiment suite
// runs in CI time.
func tiny() Options {
	o := Default()
	o.SocialV, o.SocialM = 800, 5
	o.Blocks = 60
	o.RandV, o.RandE = 500, 1500
	o.Clients = 8
	o.Duration = 120 * time.Millisecond
	o.Queries = 8
	return o
}

func TestFig7Shape(t *testing.T) {
	res, err := Fig7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Block size must grow with height, and latency with block size.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.Txs <= first.Txs {
		t.Fatalf("block size must grow: %d → %d", first.Txs, last.Txs)
	}
	if res.String() == "" {
		t.Fatal("empty render")
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := Fig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Later (bigger) blocks must render at lower query throughput.
	if res.Rows[3].QueriesSec >= res.Rows[0].QueriesSec {
		t.Fatalf("throughput should fall with block size: %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r.NodesSec <= r.QueriesSec {
			t.Fatalf("nodes/s must exceed queries/s: %+v", r)
		}
	}
}

func TestFig9aShape(t *testing.T) {
	res, err := Fig9a(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	w, ti := res.Rows[0], res.Rows[1]
	if w.System != "Weaver" || ti.System != "Titan" {
		t.Fatalf("row order: %+v", res.Rows)
	}
	if w.Throughput <= ti.Throughput {
		t.Fatalf("Weaver (%.0f tx/s) must beat Titan (%.0f tx/s) on the read-heavy TAO mix", w.Throughput, ti.Throughput)
	}
	_ = res.String()
}

func TestFig11Shape(t *testing.T) {
	res, err := Fig11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Weaver.N() == 0 || res.Sync.N() == 0 || res.Async.N() == 0 {
		t.Fatal("missing samples")
	}
	_ = res.String()
}

func TestFig12Shape(t *testing.T) {
	res, err := Fig12(tiny(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Throughput <= 0 {
			t.Fatalf("zero throughput at %d gatekeepers", r.Gatekeepers)
		}
	}
	_ = res.String()
}

func TestFig13Shape(t *testing.T) {
	res, err := Fig13(tiny(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	_ = res.String()
}

func TestFig14Shape(t *testing.T) {
	res, err := Fig14(tiny(), []time.Duration{100 * time.Microsecond, 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	small, large := res.Rows[0], res.Rows[1]
	// Frequent announces at small τ; more oracle traffic at large τ.
	if small.AnnouncesPerOp <= large.AnnouncesPerOp {
		t.Fatalf("announce overhead must fall as τ grows: %+v", res.Rows)
	}
	if small.OraclePerOp > large.OraclePerOp {
		t.Fatalf("oracle traffic must rise as τ grows: small=%.4f large=%.4f", small.OraclePerOp, large.OraclePerOp)
	}
	_ = res.String()
}
