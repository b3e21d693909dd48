package graph

import (
	"errors"
	"reflect"
	"testing"

	"weaver/internal/core"
)

func testRecord() *VertexRecord {
	return &VertexRecord{
		ID:    "user/42",
		Shard: 3,
		Props: map[string]string{"name": "Ada", "role": "admin"},
		Edges: map[EdgeID]EdgeRecord{
			"e0.gk1.7#0": {To: "user/43", Props: map[string]string{"kind": "follows"}},
			"e0.gk1.7#1": {To: "user/44"},
		},
		LastTS: core.Timestamp{Epoch: 2, Owner: 1, Clock: []uint64{5, 9, 0}},
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	for _, rec := range []*VertexRecord{
		testRecord(),
		{ID: "bare"},
		{ID: "dead", Deleted: true, LastTS: core.Timestamp{Epoch: 1, Owner: 0, Clock: []uint64{3}}},
		NewVertexRecord("empty-maps", 1),
	} {
		got, err := DecodeRecord(EncodeRecord(rec))
		if err != nil {
			t.Fatalf("%s: %v", rec.ID, err)
		}
		normalize := func(r *VertexRecord) {
			if len(r.Props) == 0 {
				r.Props = nil
			}
			if len(r.Edges) == 0 {
				r.Edges = nil
			}
		}
		want := *rec
		normalize(&want)
		normalize(got)
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("%s round trip:\n got %+v\nwant %+v", rec.ID, got, &want)
		}
	}
}

// TestRecordCodecRejectsForeignBlob: there is one record format; anything
// without its magic is a typed error, never a guess at another encoding.
func TestRecordCodecRejectsForeignBlob(t *testing.T) {
	for _, blob := range [][]byte{nil, {recMagic}, []byte("not a record"), {0x00, recVersion, 1, 'v'}} {
		if _, err := DecodeRecord(blob); !errors.Is(err, ErrNotRecord) {
			t.Fatalf("DecodeRecord(%q) = %v, want ErrNotRecord", blob, err)
		}
	}
}

// TestRecordCodecTruncation: every truncation of a valid encoding must
// error, never panic or silently succeed.
func TestRecordCodecTruncation(t *testing.T) {
	data := EncodeRecord(testRecord())
	for cut := 2; cut < len(data); cut++ {
		if _, err := DecodeRecord(data[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(data))
		}
	}
}

func BenchmarkEncodeRecord(b *testing.B) {
	rec := testRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeRecord(rec)
	}
}

func BenchmarkDecodeRecord(b *testing.B) {
	data := EncodeRecord(testRecord())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRecord(data); err != nil {
			b.Fatal(err)
		}
	}
}
