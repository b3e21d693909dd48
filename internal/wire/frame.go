package wire

import (
	"bytes"
	"fmt"

	"weaver/internal/binenc"
	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/oracle"
	"weaver/internal/transport"
)

// Hand-rolled payload codecs for every wire message, plugged into the
// transport's binary frame layer (transport/frame.go) from init. Weaver's
// refinable-timestamp protocol makes each commit and program hop a
// gatekeeper↔shard message, so serialization sits directly on the
// critical path: these codecs append varints and length-prefixed strings
// into a caller-supplied (pooled) buffer and decode with internal/binenc's
// defensive, allocation-bounded cursor. There is no second encoding: a
// message type without a case here cannot cross a connection (Append
// reports ok=false and the transport refuses to frame it), which
// TestEveryMessageHasFrameTag turns into a test failure.
//
// Tag values are part of the wire format: never reuse or renumber them,
// only append. Retired tags (0 and the blanks below) decode as corruption.
const (
	tagTxForward byte = iota + 1
	tagNop
	tagTxApplied
	tagAnnounce
	_ // 5: retired program-start message (initial hops travel as ProgHops)
	tagProgHops
	tagProgDelta
	tagProgFinish
	_ // 9: retired index-lookup layout
	_ // 10: retired index-result layout
	tagGCReport
	tagShardGCReport
	tagKVReq
	tagKVResp
	tagOracleReq
	tagOracleResp
	tagHeartbeat
	_ // 18: retired per-shard index statistics message
	tagEpochChange
	tagEpochAck
	tagEpochQuery
	tagEpochInfo
	tagPaxosReq
	tagPaxosResp
	tagIndexLookup
	tagIndexResult
	tagNopRequest
	tagGCWatermark
)

// frameCodec implements transport.FrameCodec over the message set above.
type frameCodec struct{}

func init() { transport.RegisterFrameCodec(frameCodec{}) }

// Append encodes this package's messages; ok=false means payload is not
// one of them.
func (frameCodec) Append(buf []byte, payload any) ([]byte, bool) {
	switch m := payload.(type) {
	case TxForward:
		buf = append(buf, tagTxForward)
		buf = binenc.AppendTS(buf, m.TS)
		buf = binenc.AppendUvarint(buf, m.Seq)
		buf = appendOps(buf, m.Ops)
		buf = appendTrace(buf, m.Trace)
	case Nop:
		buf = append(buf, tagNop)
		buf = binenc.AppendTS(buf, m.TS)
		buf = binenc.AppendUvarint(buf, m.Seq)
	case NopRequest:
		buf = append(buf, tagNopRequest)
		buf = binenc.AppendTS(buf, m.TS)
		buf = binenc.AppendStr(buf, string(m.From))
	case TxApplied:
		buf = append(buf, tagTxApplied)
		buf = binenc.AppendTS(buf, m.TS)
		buf = binenc.AppendVarint(buf, int64(m.Shard))
		buf = binenc.AppendVarint(buf, int64(m.Count))
	case Announce:
		buf = append(buf, tagAnnounce)
		buf = binenc.AppendTS(buf, m.TS)
	case ProgHops:
		buf = append(buf, tagProgHops)
		buf = binenc.AppendID(buf, m.QID)
		buf = binenc.AppendTS(buf, m.TS)
		buf = binenc.AppendTS(buf, m.ReadTS)
		buf = binenc.AppendBool(buf, m.Solicited)
		buf = binenc.AppendStr(buf, string(m.Coordinator))
		buf = appendHops(buf, m.Hops)
		buf = appendTrace(buf, m.Trace)
	case ProgDelta:
		buf = append(buf, tagProgDelta)
		buf = binenc.AppendID(buf, m.QID)
		buf = appendU64s(buf, m.ConsumedIDs)
		buf = appendU64s(buf, m.SpawnedIDs)
		buf = binenc.AppendUvarint(buf, uint64(len(m.Results)))
		for _, r := range m.Results {
			buf = binenc.AppendBytes(buf, r)
		}
		buf = binenc.AppendStr(buf, m.Err)
		buf = binenc.AppendVarint(buf, int64(m.ErrCode))
		buf = appendTrace(buf, m.Trace)
	case ProgFinish:
		buf = append(buf, tagProgFinish)
		buf = binenc.AppendID(buf, m.QID)
	case IndexLookup:
		buf = append(buf, tagIndexLookup)
		buf = binenc.AppendID(buf, m.QID)
		buf = binenc.AppendTS(buf, m.ReadTS)
		buf = appendWheres(buf, m.Wheres)
		buf = binenc.AppendUvarint(buf, uint64(m.Limit))
		buf = binenc.AppendStr(buf, string(m.Reply))
		buf = binenc.AppendUvarint(buf, m.Trace)
	case IndexResult:
		buf = append(buf, tagIndexResult)
		buf = binenc.AppendID(buf, m.QID)
		buf = binenc.AppendVarint(buf, int64(m.Shard))
		buf = binenc.AppendStrs(buf, m.Vertices)
		buf = binenc.AppendStr(buf, m.Err)
		buf = binenc.AppendVarint(buf, int64(m.ErrCode))
		buf = binenc.AppendUvarint(buf, uint64(m.Matched))
		buf = binenc.AppendUvarint(buf, uint64(m.Scanned))
		buf = binenc.AppendUvarint(buf, m.Trace)
	case GCReport:
		buf = append(buf, tagGCReport)
		buf = binenc.AppendVarint(buf, int64(m.GK))
		buf = binenc.AppendTS(buf, m.TS)
		buf = binenc.AppendTS(buf, m.OracleTS)
	case GCWatermark:
		buf = append(buf, tagGCWatermark)
		buf = binenc.AppendTS(buf, m.TS)
	case ShardGCReport:
		buf = append(buf, tagShardGCReport)
		buf = binenc.AppendVarint(buf, int64(m.Shard))
		buf = binenc.AppendTS(buf, m.TS)
	case KVReq:
		buf = append(buf, tagKVReq)
		buf = binenc.AppendUvarint(buf, m.ID)
		buf = append(buf, byte(m.Op))
		buf = binenc.AppendUvarint(buf, m.TxID)
		buf = binenc.AppendStr(buf, m.Key)
		buf = binenc.AppendBytes(buf, m.Value)
		buf = binenc.AppendStr(buf, m.Prefix)
	case KVResp:
		buf = append(buf, tagKVResp)
		buf = binenc.AppendUvarint(buf, m.ID)
		buf = binenc.AppendBytes(buf, m.Value)
		buf = binenc.AppendUvarint(buf, m.Version)
		buf = binenc.AppendBool(buf, m.OK)
		buf = binenc.AppendUvarint(buf, m.TxID)
		buf = binenc.AppendStr(buf, m.Err)
		buf = binenc.AppendStrs(buf, m.Keys)
		buf = binenc.AppendUvarint(buf, uint64(len(m.Vals)))
		for _, v := range m.Vals {
			buf = binenc.AppendBytes(buf, v)
		}
	case OracleReq:
		buf = append(buf, tagOracleReq)
		buf = binenc.AppendUvarint(buf, m.ID)
		buf = append(buf, byte(m.Op))
		buf = appendEvent(buf, m.A)
		buf = appendEvent(buf, m.B)
		buf = binenc.AppendVarint(buf, int64(m.Prefer))
		buf = binenc.AppendTS(buf, m.WM)
	case OracleResp:
		buf = append(buf, tagOracleResp)
		buf = binenc.AppendUvarint(buf, m.ID)
		buf = binenc.AppendVarint(buf, int64(m.Order))
		buf = binenc.AppendStr(buf, m.Err)
		buf = m.Stats.Append(buf)
	case Heartbeat:
		buf = append(buf, tagHeartbeat)
		buf = binenc.AppendStr(buf, string(m.From))
	case EpochChange:
		buf = append(buf, tagEpochChange)
		buf = binenc.AppendUvarint(buf, m.Epoch)
		buf = append(buf, m.Phase)
		buf = binenc.AppendStr(buf, string(m.From))
	case EpochAck:
		buf = append(buf, tagEpochAck)
		buf = binenc.AppendUvarint(buf, m.Epoch)
		buf = binenc.AppendStr(buf, string(m.From))
		buf = append(buf, m.Phase)
	case EpochQuery:
		buf = append(buf, tagEpochQuery)
		buf = binenc.AppendUvarint(buf, m.ID)
		buf = binenc.AppendStr(buf, string(m.From))
		buf = binenc.AppendBool(buf, m.Boot)
	case EpochInfo:
		buf = append(buf, tagEpochInfo)
		buf = binenc.AppendUvarint(buf, m.ID)
		buf = binenc.AppendUvarint(buf, m.Epoch)
		buf = binenc.AppendStrs(buf, m.Failed)
	case PaxosReq:
		buf = append(buf, tagPaxosReq)
		buf = binenc.AppendUvarint(buf, m.ID)
		buf = append(buf, byte(m.Op))
		buf = binenc.AppendUvarint(buf, m.Slot)
		buf = binenc.AppendUvarint(buf, m.N)
		buf = binenc.AppendVarint(buf, int64(m.Prop))
		buf = binenc.AppendBytes(buf, m.Value)
		buf = binenc.AppendBool(buf, m.HasValue)
	case PaxosResp:
		buf = append(buf, tagPaxosResp)
		buf = binenc.AppendUvarint(buf, m.ID)
		buf = binenc.AppendBool(buf, m.OK)
		buf = binenc.AppendUvarint(buf, m.AccN)
		buf = binenc.AppendVarint(buf, int64(m.AccProp))
		buf = binenc.AppendBytes(buf, m.Value)
		buf = binenc.AppendBool(buf, m.HasValue)
		buf = binenc.AppendUvarint(buf, m.Max)
		buf = binenc.AppendStr(buf, m.Err)
	default:
		return buf, false
	}
	return buf, true
}

// Decode decodes a tag+body produced by Append. Trailing bytes are an
// error: a frame carries exactly one message, so leftovers mean
// corruption the CRC happened to miss or a framing bug.
func (frameCodec) Decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("wire: empty payload")
	}
	tag := data[0]
	d := &binenc.Decoder{Buf: data[1:]}
	var v any
	switch tag {
	case tagTxForward:
		m := TxForward{TS: d.TS(), Seq: d.Uvarint(), Ops: decodeOps(d)}
		m.Trace = decodeTrace(d)
		v = m
	case tagNop:
		v = Nop{TS: d.TS(), Seq: d.Uvarint()}
	case tagNopRequest:
		v = NopRequest{TS: d.TS(), From: transport.DecodeAddr(d)}
	case tagTxApplied:
		v = TxApplied{TS: d.TS(), Shard: int(d.Varint()), Count: int(d.Varint())}
	case tagAnnounce:
		v = Announce{TS: d.TS()}
	case tagProgHops:
		m := ProgHops{
			QID: d.ID(), TS: d.TS(), ReadTS: d.TS(), Solicited: d.Bool(),
			Coordinator: transport.DecodeAddr(d), Hops: decodeHops(d),
		}
		m.Trace = decodeTrace(d)
		v = m
	case tagProgDelta:
		m := ProgDelta{QID: d.ID(), ConsumedIDs: decodeU64s(d), SpawnedIDs: decodeU64s(d)}
		m.Results = decodeResults(d)
		m.Err = d.Str()
		m.ErrCode = int(d.Varint())
		m.Trace = decodeTrace(d)
		v = m
	case tagProgFinish:
		v = ProgFinish{QID: d.ID()}
	case tagIndexLookup:
		v = IndexLookup{
			QID: d.ID(), ReadTS: d.TS(), Wheres: decodeWheres(d), Limit: int(d.Uvarint()),
			Reply: transport.DecodeAddr(d), Trace: d.Uvarint(),
		}
	case tagIndexResult:
		v = IndexResult{
			QID: d.ID(), Shard: int(d.Varint()), Vertices: binenc.Strs[graph.VertexID](d),
			Err: d.Str(), ErrCode: int(d.Varint()),
			Matched: int(d.Uvarint()), Scanned: int(d.Uvarint()), Trace: d.Uvarint(),
		}
	case tagGCReport:
		v = GCReport{GK: int(d.Varint()), TS: d.TS(), OracleTS: d.TS()}
	case tagGCWatermark:
		v = GCWatermark{TS: d.TS()}
	case tagShardGCReport:
		v = ShardGCReport{Shard: int(d.Varint()), TS: d.TS()}
	case tagKVReq:
		v = KVReq{
			ID: d.Uvarint(), Op: KVOp(d.Byte()), TxID: d.Uvarint(),
			Key: d.Str(), Value: d.Bytes(), Prefix: d.Str(),
		}
	case tagKVResp:
		m := KVResp{
			ID: d.Uvarint(), Value: d.Bytes(), Version: d.Uvarint(),
			OK: d.Bool(), TxID: d.Uvarint(), Err: d.Str(),
			Keys: binenc.Strs[string](d),
		}
		if n := d.Count(1); n > 0 && d.Err == nil {
			m.Vals = make([][]byte, 0, n)
			for i := uint64(0); i < n && d.Err == nil; i++ {
				m.Vals = append(m.Vals, d.Bytes())
			}
		}
		v = m
	case tagOracleReq:
		v = OracleReq{
			ID: d.Uvarint(), Op: OracleOp(d.Byte()),
			A: decodeEvent(d), B: decodeEvent(d),
			Prefer: core.Order(d.Varint()), WM: d.TS(),
		}
	case tagOracleResp:
		v = OracleResp{
			ID: d.Uvarint(), Order: core.Order(d.Varint()), Err: d.Str(),
			Stats: oracle.DecodeStats(d),
		}
	case tagHeartbeat:
		v = Heartbeat{From: transport.DecodeAddr(d)}
	case tagEpochChange:
		v = EpochChange{Epoch: d.Uvarint(), Phase: d.Byte(), From: transport.DecodeAddr(d)}
	case tagEpochAck:
		v = EpochAck{Epoch: d.Uvarint(), From: transport.DecodeAddr(d), Phase: d.Byte()}
	case tagEpochQuery:
		v = EpochQuery{ID: d.Uvarint(), From: transport.DecodeAddr(d), Boot: d.Bool()}
	case tagEpochInfo:
		v = EpochInfo{ID: d.Uvarint(), Epoch: d.Uvarint(), Failed: binenc.Strs[transport.Addr](d)}
	case tagPaxosReq:
		v = PaxosReq{
			ID: d.Uvarint(), Op: PaxosOp(d.Byte()), Slot: d.Uvarint(),
			N: d.Uvarint(), Prop: int32(d.Varint()),
			Value: d.Bytes(), HasValue: d.Bool(),
		}
	case tagPaxosResp:
		v = PaxosResp{
			ID: d.Uvarint(), OK: d.Bool(), AccN: d.Uvarint(), AccProp: int32(d.Varint()),
			Value: d.Bytes(), HasValue: d.Bool(), Max: d.Uvarint(), Err: d.Str(),
		}
	default:
		return nil, fmt.Errorf("wire: unknown frame tag %d", tag)
	}
	if d.Err != nil {
		return nil, fmt.Errorf("wire: decode tag %d: %w", tag, d.Err)
	}
	if len(d.Buf) != 0 {
		return nil, fmt.Errorf("wire: decode tag %d: %d trailing bytes", tag, len(d.Buf))
	}
	return v, nil
}

// appendTrace encodes the obs trace ID as an append-only TRAILING
// field: written only when nonzero, so untraced messages stay
// byte-identical to the pre-trace wire format. Any message gaining a
// trace field must put it after every other field (and new trailing
// fields must go after it, encoded unconditionally once a trace can
// precede them). IndexLookup and IndexResult carry their trace as an
// ordinary field instead.
func appendTrace(buf []byte, trace uint64) []byte {
	if trace == 0 {
		return buf
	}
	return binenc.AppendUvarint(buf, trace)
}

// decodeTrace reads the optional trailing trace ID: absent (old frames,
// or untraced messages) decodes as 0. Call it after every other field
// so Decode's trailing-bytes corruption check still covers anything
// beyond the trace.
func decodeTrace(d *binenc.Decoder) uint64 {
	if d.Err != nil || len(d.Buf) == 0 {
		return 0
	}
	return d.Uvarint()
}

func appendWheres(buf []byte, ws []Where) []byte {
	buf = binenc.AppendUvarint(buf, uint64(len(ws)))
	for i := range ws {
		w := &ws[i]
		buf = binenc.AppendStr(buf, w.Key)
		buf = append(buf, w.Op)
		buf = binenc.AppendStr(buf, w.Value)
	}
	return buf
}

func decodeWheres(d *binenc.Decoder) []Where {
	n := d.Count(3) // ≥3 bytes per predicate: two prefixes + op
	if n == 0 || d.Err != nil {
		return nil
	}
	ws := make([]Where, 0, n)
	for i := uint64(0); i < n && d.Err == nil; i++ {
		ws = append(ws, Where{Key: d.Str(), Op: d.Byte(), Value: d.Str()})
	}
	return ws
}

func appendOps(buf []byte, ops []graph.Op) []byte {
	buf = binenc.AppendUvarint(buf, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		buf = append(buf, byte(op.Kind))
		buf = binenc.AppendStr(buf, string(op.Vertex))
		buf = binenc.AppendStr(buf, string(op.Edge))
		buf = binenc.AppendStr(buf, string(op.To))
		buf = binenc.AppendStr(buf, op.Key)
		buf = binenc.AppendStr(buf, op.Value)
	}
	return buf
}

func decodeOps(d *binenc.Decoder) []graph.Op {
	// Each op is ≥6 bytes (kind + five length prefixes): the count guard
	// keeps a corrupt header from pre-sizing a giant slice.
	n := d.Count(6)
	if n == 0 || d.Err != nil {
		return nil
	}
	ops := make([]graph.Op, 0, n)
	for i := uint64(0); i < n && d.Err == nil; i++ {
		ops = append(ops, graph.Op{
			Kind:   graph.OpKind(d.Byte()),
			Vertex: graph.VertexID(d.Str()),
			Edge:   graph.EdgeID(d.Str()),
			To:     graph.VertexID(d.Str()),
			Key:    d.Str(),
			Value:  d.Str(),
		})
	}
	return ops
}

func appendHops(buf []byte, hops []Hop) []byte {
	buf = binenc.AppendUvarint(buf, uint64(len(hops)))
	for i := range hops {
		h := &hops[i]
		buf = binenc.AppendUvarint(buf, h.ID)
		buf = binenc.AppendStr(buf, string(h.Vertex))
		buf = binenc.AppendStr(buf, h.Program)
		buf = binenc.AppendBytes(buf, h.Params)
		buf = binenc.AppendVarint(buf, int64(h.Origin))
	}
	return buf
}

// decodeHops reads a batch of hops. A hop whose program name or params
// equal the previous hop's shares that hop's copy — the hops of one batch
// run one program, and every hop one visit scatters carries one params
// value — so a batch costs one vertex string per hop and little else.
// Params are read-only (nodeprog.Context), so sharing them is safe.
func decodeHops(d *binenc.Decoder) []Hop {
	n := d.Count(5) // ≥5 bytes per hop: id + three prefixes + origin
	if n == 0 || d.Err != nil {
		return nil
	}
	hops := make([]Hop, 0, n)
	var prev Hop
	for i := uint64(0); i < n && d.Err == nil; i++ {
		h := Hop{ID: d.Uvarint(), Vertex: graph.VertexID(d.Str())}
		if raw := d.RawStr(); string(raw) == prev.Program {
			h.Program = prev.Program
		} else {
			h.Program = string(raw)
		}
		if raw := d.RawStr(); bytes.Equal(raw, prev.Params) {
			h.Params = prev.Params
		} else if len(raw) > 0 {
			h.Params = make([]byte, len(raw))
			copy(h.Params, raw)
		}
		h.Origin = int(d.Varint())
		hops = append(hops, h)
		prev = h
	}
	return hops
}

func appendU64s(buf []byte, vs []uint64) []byte {
	buf = binenc.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binenc.AppendUvarint(buf, v)
	}
	return buf
}

// decodeResults reads ProgDelta.Results into one copy of their bytes, each
// result a capacity-capped subslice of it, so appending to one never
// overwrites the next. An empty result decodes as nil, as Decoder.Bytes.
func decodeResults(d *binenc.Decoder) [][]byte {
	n := d.Count(1)
	if n == 0 || d.Err != nil {
		return nil
	}
	second, size := *d, 0
	for i := uint64(0); i < n && d.Err == nil; i++ {
		size += len(d.RawStr())
	}
	if d.Err != nil {
		return nil
	}
	buf, rs := make([]byte, 0, size), make([][]byte, n)
	for i := range rs {
		if r := second.RawStr(); len(r) > 0 {
			off := len(buf)
			buf = append(buf, r...)
			rs[i] = buf[off:len(buf):len(buf)]
		}
	}
	return rs
}

func decodeU64s(d *binenc.Decoder) []uint64 {
	n := d.Count(1)
	if n == 0 || d.Err != nil {
		return nil
	}
	vs := make([]uint64, 0, n)
	for i := uint64(0); i < n && d.Err == nil; i++ {
		vs = append(vs, d.Uvarint())
	}
	return vs
}

func appendEvent(buf []byte, e oracle.Event) []byte {
	buf = binenc.AppendID(buf, e.ID)
	return binenc.AppendTS(buf, e.TS)
}

func decodeEvent(d *binenc.Decoder) oracle.Event {
	return oracle.Event{ID: d.ID(), TS: d.TS()}
}
