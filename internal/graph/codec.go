package graph

import (
	"encoding/binary"
	"errors"
	"fmt"

	"weaver/internal/binenc"
)

// Vertex records are the unit the backing store, WAL, snapshots, demand
// pager and recovery all move around, and the gatekeeper re-encodes every
// record a transaction touches — so the codec is hot. Records use a
// hand-rolled length-prefixed binary format behind a magic and a version
// byte; the shared primitives (and their defensive decoding guards) live
// in internal/binenc. It is the only record format: a blob without the
// magic is ErrNotRecord.

const (
	recMagic   = 0xD7
	recVersion = 1
)

// VertexKeyPrefix is the backing-store key prefix of vertex records; a
// prefix scan over it enumerates every vertex (recovery, §4.3).
const VertexKeyPrefix = "v/"

// VertexKey is the backing-store key of v's record.
func VertexKey(v VertexID) string { return VertexKeyPrefix + string(v) }

// ErrNotRecord reports a blob that does not start with the vertex-record
// magic: not something EncodeRecord wrote.
var ErrNotRecord = errors.New("graph: not a vertex record")

// EncodeRecord serializes a vertex record for the backing store.
func EncodeRecord(rec *VertexRecord) []byte {
	// Rough capacity: fixed header + strings; avoids most regrowth.
	size := 24 + len(rec.ID) + 8*len(rec.LastTS.Clock) + 24*len(rec.Props) + 48*len(rec.Edges)
	buf := make([]byte, 0, size)
	buf = append(buf, recMagic, recVersion)
	buf = binenc.AppendStr(buf, string(rec.ID))
	buf = binary.AppendUvarint(buf, uint64(rec.Shard))
	buf = binenc.AppendBool(buf, rec.Deleted)
	buf = binenc.AppendTS(buf, rec.LastTS)
	buf = binenc.AppendStrMap(buf, rec.Props)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Edges)))
	for eid, er := range rec.Edges {
		buf = binenc.AppendStr(buf, string(eid))
		buf = binenc.AppendStr(buf, string(er.To))
		buf = binenc.AppendStrMap(buf, er.Props)
	}
	return buf
}

// DecodeRecord decodes a vertex record produced by EncodeRecord.
func DecodeRecord(data []byte) (*VertexRecord, error) {
	if len(data) < 2 || data[0] != recMagic {
		return nil, ErrNotRecord
	}
	if data[1] != recVersion {
		return nil, fmt.Errorf("graph: record codec version %d unsupported", data[1])
	}
	d := binenc.Decoder{Buf: data[2:]}
	rec := &VertexRecord{}
	rec.ID = VertexID(d.Str())
	rec.Shard = int(d.Uvarint())
	rec.Deleted = d.Bool()
	rec.LastTS = d.TS()
	rec.Props = d.StrMap()
	// Each edge is ≥2 bytes: the count guard keeps a corrupt header from
	// pre-sizing a map for 2^60 entries.
	if n := d.Count(2); n > 0 && d.Err == nil {
		rec.Edges = make(map[EdgeID]EdgeRecord, n)
		for i := uint64(0); i < n && d.Err == nil; i++ {
			eid := EdgeID(d.Str())
			var er EdgeRecord
			er.To = VertexID(d.Str())
			er.Props = d.StrMap()
			rec.Edges[eid] = er
		}
	}
	if d.Err != nil {
		return nil, fmt.Errorf("graph: decode record: %w", d.Err)
	}
	return rec, nil
}
