package nodeprog

import (
	"fmt"
	"reflect"
	"sync"

	"weaver/internal/binenc"
	"weaver/internal/graph"
)

// The payload codec of the built-in programs. A payload is one type-tag
// byte followed by the type's fields in internal/binenc encoding, so a
// program hop costs a few appends and a bounded decode. Payloads live only
// as long as their query (params on the wire, prog_state in shard memory)
// and are never persisted, and one cluster runs one build, so no tag
// outlives its build. Tags are appended, never renumbered, which keeps each
// type's bytes across builds; the last tags may be dropped with their types.
const (
	tagVertexID byte = iota + 1
	tagInt
	tagBool
	tagTraverseParams
	tagNodeData
	tagReachParams
	tagSPParams
	tagSPState
	tagSPResult
	tagCCParams
	tagCCResult
	tagBlockTxData
	numTags = iota // append new tags above this line
)

// encodeBufs holds scratch buffers for Encode, so that a payload costs one
// allocation: the exact-size copy it returns.
var encodeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// maxPooledBuf keeps the scratch buffer of one huge payload (a get_edges
// result of a hub vertex) from being held by the pool.
const maxPooledBuf = 64 << 10

// Encode encodes a payload for use as Params, State or Return. v must be
// one of this package's payload types (TraverseParams, NodeData,
// ReachParams, SPParams, SPResult, CCParams, CCResult, BlockTxData and
// the programs' private state) or a graph.VertexID, int or bool. Encode panics on any
// other type: a program's payload types are fixed when it is written.
func Encode(v any) []byte {
	bp := encodeBufs.Get().(*[]byte)
	b := (*bp)[:0]
	switch v := v.(type) {
	case graph.VertexID:
		b = binenc.AppendStr(append(b, tagVertexID), string(v))
	case int:
		b = appendInt(append(b, tagInt), v)
	case bool:
		b = binenc.AppendBool(append(b, tagBool), v)
	case TraverseParams:
		b = v.append(append(b, tagTraverseParams))
	case NodeData:
		b = v.append(append(b, tagNodeData))
	case ReachParams:
		b = v.append(append(b, tagReachParams))
	case SPParams:
		b = v.append(append(b, tagSPParams))
	case spState:
		b = v.append(append(b, tagSPState))
	case SPResult:
		b = appendInt(append(b, tagSPResult), v.Dist)
	case CCParams:
		b = v.append(append(b, tagCCParams))
	case CCResult:
		b = v.append(append(b, tagCCResult))
	case BlockTxData:
		b = v.append(append(b, tagBlockTxData))
	default:
		encodeBufs.Put(bp)
		panic("nodeprog: encode: no codec for " + typeName(v))
	}
	out := append([]byte(nil), b...)
	if cap(b) <= maxPooledBuf {
		*bp = b
		encodeBufs.Put(bp)
	}
	return out
}

// Decode decodes a payload produced by Encode into v, a pointer to the
// type that was encoded. It fails when the payload carries another type's
// tag, is truncated, or has bytes left over, and when v is not a pointer
// to one of Encode's types; on failure *v may be partly written.
func Decode(data []byte, v any) error {
	d := binenc.Decoder{Buf: data}
	tag := d.Byte()
	is := func(want byte) bool {
		if d.Err == nil && tag != want {
			d.Err = fmt.Errorf("payload tag %d, want %d", tag, want)
		}
		return d.Err == nil
	}
	switch v := v.(type) {
	case *graph.VertexID:
		if is(tagVertexID) {
			*v = graph.VertexID(d.Str())
		}
	case *int:
		if is(tagInt) {
			*v = int(d.Varint())
		}
	case *bool:
		if is(tagBool) {
			*v = d.Bool()
		}
	case *TraverseParams:
		if is(tagTraverseParams) {
			v.decode(&d)
		}
	case *NodeData:
		if is(tagNodeData) {
			v.decode(&d)
		}
	case *ReachParams:
		if is(tagReachParams) {
			v.decode(&d)
		}
	case *SPParams:
		if is(tagSPParams) {
			v.decode(&d)
		}
	case *spState:
		if is(tagSPState) {
			v.decode(&d)
		}
	case *SPResult:
		if is(tagSPResult) {
			v.Dist = int(d.Varint())
		}
	case *CCParams:
		if is(tagCCParams) {
			v.decode(&d)
		}
	case *CCResult:
		if is(tagCCResult) {
			v.decode(&d)
		}
	case *BlockTxData:
		if is(tagBlockTxData) {
			v.decode(&d)
		}
	default:
		return fmt.Errorf("nodeprog: decode: no codec for %s", typeName(v))
	}
	if d.Err == nil && len(d.Buf) > 0 {
		d.Err = fmt.Errorf("%d trailing bytes", len(d.Buf))
	}
	if d.Err != nil {
		return fmt.Errorf("nodeprog: decode %s: %w", typeName(v), d.Err)
	}
	return nil
}

// typeName names v's type for an error without letting v escape, which
// would cost every caller a heap copy of the value it encodes or decodes
// into.
func typeName(v any) string { return reflect.TypeOf(v).String() }

func appendInt(b []byte, v int) []byte { return binenc.AppendVarint(b, int64(v)) }

func (p TraverseParams) append(b []byte) []byte {
	b = binenc.AppendStr(b, p.PropKey)
	b = binenc.AppendStr(b, p.PropValue)
	return appendInt(appendInt(b, p.MaxDepth), p.Depth)
}

func (p *TraverseParams) decode(d *binenc.Decoder) {
	p.PropKey, p.PropValue = d.Str(), d.Str()
	p.MaxDepth, p.Depth = int(d.Varint()), int(d.Varint())
}

func (n NodeData) append(b []byte) []byte {
	b = binenc.AppendStr(b, string(n.ID))
	b = binenc.AppendStrMap(b, n.Props)
	b = binenc.AppendStrs(b, n.EdgesTo)
	return appendInt(b, n.NumEdges)
}

func (n *NodeData) decode(d *binenc.Decoder) {
	n.ID = graph.VertexID(d.Str())
	n.Props = d.StrMap()
	n.EdgesTo = binenc.Strs[graph.VertexID](d)
	n.NumEdges = int(d.Varint())
}

func (p ReachParams) append(b []byte) []byte {
	b = binenc.AppendStr(b, string(p.Target))
	b = binenc.AppendStr(b, p.PropKey)
	return binenc.AppendStr(b, p.PropValue)
}

func (p *ReachParams) decode(d *binenc.Decoder) {
	p.Target, p.PropKey, p.PropValue = graph.VertexID(d.Str()), d.Str(), d.Str()
}

func (p SPParams) append(b []byte) []byte {
	return appendInt(binenc.AppendStr(b, string(p.Target)), p.Dist)
}

func (p *SPParams) decode(d *binenc.Decoder) {
	p.Target, p.Dist = graph.VertexID(d.Str()), int(d.Varint())
}

func (s spState) append(b []byte) []byte { return binenc.AppendBool(appendInt(b, s.Dist), s.Set) }

func (s *spState) decode(d *binenc.Decoder) { s.Dist, s.Set = int(d.Varint()), d.Bool() }

func (p CCParams) append(b []byte) []byte {
	return binenc.AppendStrs(binenc.AppendStr(b, string(p.Center)), p.Neighbors)
}

func (p *CCParams) decode(d *binenc.Decoder) {
	p.Center, p.Neighbors = graph.VertexID(d.Str()), binenc.Strs[graph.VertexID](d)
}

func (r CCResult) append(b []byte) []byte {
	return appendInt(appendInt(binenc.AppendBool(b, r.IsCenter), r.Degree), r.Links)
}

func (r *CCResult) decode(d *binenc.Decoder) {
	r.IsCenter, r.Degree, r.Links = d.Bool(), int(d.Varint()), int(d.Varint())
}

func (t BlockTxData) append(b []byte) []byte {
	b = binenc.AppendStr(b, string(t.Tx))
	return binenc.AppendStrs(binenc.AppendStrs(b, t.Inputs), t.Outputs)
}

func (t *BlockTxData) decode(d *binenc.Decoder) {
	t.Tx = graph.VertexID(d.Str())
	t.Inputs, t.Outputs = binenc.Strs[graph.VertexID](d), binenc.Strs[graph.VertexID](d)
}
