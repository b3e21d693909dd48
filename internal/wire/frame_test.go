package wire

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/oracle"
	"weaver/internal/transport"
)

func ts(epoch uint64, owner int, clock ...uint64) core.Timestamp {
	return core.Timestamp{Epoch: epoch, Owner: owner, Clock: clock}
}

// sampleMessages is the table of every message type in this package, each
// with populated and zero-ish field mixes. TestEveryMessageHasFrameTag
// fails when a type declared in the package is missing from it.
func sampleMessages() []any {
	qid := ts(1, 0, 5, 3).ID()
	return []any{
		TxForward{TS: ts(2, 1, 7, 9), Seq: 42, Ops: []graph.Op{
			{Kind: graph.OpCreateVertex, Vertex: "user/1"},
			{Kind: graph.OpCreateEdge, Vertex: "user/1", Edge: "e0.gk0.5#0", To: "user/2"},
			{Kind: graph.OpSetEdgeProp, Vertex: "user/1", Edge: "e0.gk0.5#0", Key: "kind", Value: "follows"},
			{Kind: graph.OpDeleteVertex, Vertex: "user/3"},
		}},
		TxForward{TS: ts(0, 0, 1), Seq: 1},
		TxForward{TS: ts(2, 1, 7, 9), Seq: 43, Trace: 0xdeadbeef,
			Ops: []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "user/9"}}},
		Nop{TS: ts(3, 2, 1, 2, 3), Seq: 9000},
		NopRequest{TS: ts(2, 1, 4, 7), From: "shard/3"},
		NopRequest{},
		TxApplied{TS: ts(1, 1, 4, 4), Shard: 3, Count: 17},
		TxApplied{TS: ts(1, 0, 1), Shard: 0, Count: -1},
		Announce{TS: ts(5, 2, 9, 9, 9)},
		ProgHops{
			QID: qid, TS: ts(1, 0, 5, 3), ReadTS: ts(1, 0, 2, 1),
			Hops: []Hop{
				{ID: 1, Vertex: "a", Program: "bfs", Params: []byte("x"), Origin: -1},
				{ID: 2, Vertex: "b", Program: "bfs", Origin: 3},
			},
			Coordinator: transport.Addr("gk/0"),
		},
		ProgHops{},
		ProgHops{QID: qid, TS: ts(1, 0, 5, 3), Coordinator: "gk/1",
			Hops: []Hop{{ID: 7, Vertex: "v", Program: "p", Origin: 0}}},
		ProgHops{QID: qid, TS: ts(1, 0, 5, 3), Coordinator: "gk/1", Trace: 1},
		ProgHops{QID: qid, TS: ts(1, 1, 5, 6), ReadTS: ts(1, 1, 5, 6), Solicited: true, Coordinator: "gk/1",
			Hops: []Hop{{ID: 1<<63 | 4, Vertex: "v", Program: "get_node", Origin: -1}}},
		ProgDelta{QID: qid, ConsumedIDs: []uint64{1, 2, 3}, SpawnedIDs: []uint64{9},
			Results: [][]byte{[]byte("r1"), nil, []byte("r3")}, Err: "boom", ErrCode: ErrCodeStaleSnapshot},
		ProgDelta{QID: qid},
		ProgDelta{QID: qid, ConsumedIDs: []uint64{4}, Trace: 1 << 63},
		ProgFinish{QID: qid},
		IndexLookup{QID: qid, ReadTS: ts(1, 1, 3, 3), Wheres: Eq("city", "ithaca"), Reply: "gk/2"},
		IndexLookup{QID: qid, Wheres: []Where{{Key: "age", Op: OpGe, Value: "10"}, {Key: "age", Op: OpLe, Value: "42"}}, Reply: "gk/0"},
		IndexLookup{QID: qid, Wheres: []Where{{Key: "age", Op: OpGe}}, Reply: "gk/2", Trace: 99},
		IndexLookup{QID: qid, ReadTS: ts(1, 1, 3, 3), Reply: "gk/2", Wheres: []Where{
			{Key: "city", Op: OpEq, Value: "ithaca"},
			{Key: "age", Op: OpGe, Value: "21"},
		}, Limit: 10},
		IndexLookup{QID: qid, Reply: "gk/0", Trace: 1<<64 - 1, Wheres: []Where{{Key: "k", Op: OpLt, Value: "z"}}},
		IndexLookup{QID: qid, Reply: "gk/1", Limit: 3}, // no predicates: the shard rejects it, the codec carries it
		IndexResult{QID: qid, Shard: 2, Vertices: []graph.VertexID{"v1", "v2"}},
		IndexResult{QID: qid, Shard: 1, Err: "no index", ErrCode: ErrCodeNoIndex},
		IndexResult{QID: qid, Shard: 0, Vertices: []graph.VertexID{"v3"}, Trace: 1<<64 - 1},
		IndexResult{QID: qid, Shard: 3, Vertices: []graph.VertexID{"v1"}, Matched: 9, Scanned: 41, Trace: 8},
		IndexResult{QID: qid, Shard: 5, Matched: 2, Scanned: 2},
		GCReport{GK: 2, TS: ts(1, 2, 8, 8, 8), OracleTS: ts(1, 2, 9, 9, 9)},
		GCWatermark{TS: ts(1, 1, 7, 8)},
		GCWatermark{},
		ShardGCReport{Shard: 4, TS: ts(2, 0, 1, 1)},
		KVReq{ID: 77, Op: KVTxPut, TxID: 5, Key: "k", Value: []byte("v")},
		KVReq{ID: 78, Op: KVScan, Prefix: "vertex/"},
		KVResp{ID: 77, Value: []byte("v"), Version: 9, OK: true, TxID: 5,
			Keys: []string{"a", "b"}, Vals: [][]byte{[]byte("1"), []byte("2")}},
		KVResp{ID: 78, Err: "conflict"},
		OracleReq{ID: 1, Op: OracleQueryOrder,
			A: oracle.EventOf(ts(1, 0, 3, 1)), B: oracle.EventOf(ts(1, 1, 1, 3)),
			Prefer: core.Before, WM: ts(1, 0, 1, 1)},
		OracleResp{ID: 1, Order: core.After, Err: "",
			Stats: oracle.Stats{Queries: 4, Events: 2, CycleRefused: 1}},
		Heartbeat{From: "shard/3"},
		EpochChange{Epoch: 7, Phase: EpochPhasePause, From: "climgr"},
		EpochChange{Epoch: 8},
		EpochAck{Epoch: 7, From: "shard/1", Phase: EpochPhasePause},
		EpochQuery{ID: 3, From: "gk/1", Boot: true},
		EpochQuery{},
		EpochInfo{ID: 3, Epoch: 9, Failed: []transport.Addr{"gk/0", "shard/2"}},
		EpochInfo{ID: 4, Epoch: 9},
		PaxosReq{ID: 5, Op: PaxosAccept, Slot: 2, N: 11, Prop: -1, Value: []byte("bump"), HasValue: true},
		PaxosReq{ID: 6, Op: PaxosMaxSeen},
		PaxosResp{ID: 5, OK: true, AccN: 10, AccProp: 2, Value: []byte("bump"), HasValue: true, Max: 4},
		PaxosResp{ID: 6, Err: "no quorum"},
	}
}

// normalizeMsg maps nil and empty slices to a canonical form so semantic
// round-trip comparison ignores the codec's nil-for-empty convention.
func normalizeMsg(v any) any {
	rv := reflect.ValueOf(&v).Elem().Elem()
	cp := reflect.New(rv.Type()).Elem()
	cp.Set(rv)
	normalizeValue(cp)
	return cp.Interface()
}

func normalizeValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		for i := 0; i < v.Len(); i++ {
			normalizeValue(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			normalizeValue(v.Field(i))
		}
	}
}

func TestFrameCodecRoundTrip(t *testing.T) {
	var c frameCodec
	for _, msg := range sampleMessages() {
		buf, ok := c.Append(nil, msg)
		if !ok {
			t.Fatalf("%T: no hand-rolled codec", msg)
		}
		got, err := c.Decode(buf)
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if !reflect.DeepEqual(normalizeMsg(msg), normalizeMsg(got)) {
			t.Fatalf("%T round trip:\nsent %#v\ngot  %#v", msg, msg, got)
		}
	}
}

// TestFrameCodecViaTransport sends every message through the full frame
// path (addresses, tag, CRC) exactly as a connection would.
func TestFrameCodecViaTransport(t *testing.T) {
	for _, msg := range sampleMessages() {
		buf, err := transport.AppendFrame(nil, "gk/0", "shard/1", msg)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		from, to, got, err := transport.DecodeFrame(buf[4:])
		if err != nil {
			t.Fatalf("%T: decode frame: %v", msg, err)
		}
		if from != "gk/0" || to != "shard/1" {
			t.Fatalf("%T: envelope %q→%q", msg, from, to)
		}
		if !reflect.DeepEqual(normalizeMsg(msg), normalizeMsg(got)) {
			t.Fatalf("%T round trip mismatch", msg)
		}
	}
}

// TestEveryMessageHasFrameTag is the no-second-encoding gate: every
// exported struct type declared in this package is either a message in
// sampleMessages (which TestFrameCodecViaTransport round-trips through
// transport.AppendFrame/DecodeFrame, so it has a tag) or one of the few
// types that only ever travel nested inside a message. Declaring a new
// message without giving it a codec fails here, not in a TCP deployment.
func TestEveryMessageHasFrameTag(t *testing.T) {
	nested := map[string]bool{"Hop": true, "Where": true}
	sampled := map[string]bool{}
	for _, msg := range sampleMessages() {
		sampled[reflect.TypeOf(msg).Name()] = true
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, f := range pkgs["wire"].Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if _, isStruct := ts.Type.(*ast.StructType); !isStruct || !ts.Name.IsExported() {
					continue
				}
				declared++
				if name := ts.Name.Name; !sampled[name] && !nested[name] {
					t.Errorf("wire.%s is not in sampleMessages: give it a frame tag and a sample", name)
				}
			}
		}
	}
	if declared < len(sampled) {
		t.Fatalf("parsed %d struct types, fewer than the %d sampled — parser found the wrong package", declared, len(sampled))
	}
}

// traceable builds every message shape carrying the optional trailing
// Trace field, with the given trace value. (IndexLookup and IndexResult
// encode their trace unconditionally; sampleMessages covers them.)
func traceable(trace uint64) []any {
	qid := ts(1, 0, 5, 3).ID()
	return []any{
		TxForward{TS: ts(2, 1, 7, 9), Seq: 42, Trace: trace,
			Ops: []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "user/1"}}},
		ProgHops{QID: qid, TS: ts(1, 0, 5, 3), Coordinator: "gk/1",
			Hops: []Hop{{ID: 7, Vertex: "v", Program: "p", Origin: 0}}, Trace: trace},
		ProgDelta{QID: qid, ConsumedIDs: []uint64{1}, Results: [][]byte{[]byte("r")}, Trace: trace},
	}
}

// withTrace returns a copy of msg with its Trace field set (all
// traceable messages carry the field by the name Trace).
func setTrace(msg any, trace uint64) any {
	rv := reflect.ValueOf(&msg).Elem().Elem()
	cp := reflect.New(rv.Type()).Elem()
	cp.Set(rv)
	cp.FieldByName("Trace").SetUint(trace)
	return cp.Interface()
}

// TestTraceFieldRoundTrip checks the trace ID survives encode→decode on
// every message that carries one, across edge values.
func TestTraceFieldRoundTrip(t *testing.T) {
	var c frameCodec
	for _, trace := range []uint64{1, 64, 1 << 20, 1<<64 - 1} {
		for _, msg := range traceable(trace) {
			buf, ok := c.Append(nil, msg)
			if !ok {
				t.Fatalf("%T: no codec", msg)
			}
			got, err := c.Decode(buf)
			if err != nil {
				t.Fatalf("%T trace=%d: %v", msg, trace, err)
			}
			if !reflect.DeepEqual(normalizeMsg(msg), normalizeMsg(got)) {
				t.Fatalf("%T trace=%d round trip:\nsent %#v\ngot  %#v", msg, trace, msg, got)
			}
		}
	}
}

// TestTraceFieldOldFrameCompat pins the append-only evolution contract
// in both directions: an untraced message encodes byte-identically to
// the pre-trace wire format (so old decoders accept frames from new
// senders), and a frame missing the field entirely — what an old sender
// produces — decodes with Trace == 0.
func TestTraceFieldOldFrameCompat(t *testing.T) {
	var c frameCodec
	for _, traced := range traceable(5) {
		untraced := setTrace(traced, 0)
		oldBuf, _ := c.Append(nil, untraced) // == the PR 6 encoding: no trace bytes
		newBuf, _ := c.Append(nil, traced)
		if len(newBuf) != len(oldBuf)+1 {
			t.Fatalf("%T: trace=5 must cost exactly one trailing byte (%d vs %d)",
				traced, len(newBuf), len(oldBuf))
		}
		if string(newBuf[:len(oldBuf)]) != string(oldBuf) {
			t.Fatalf("%T: trace field is not append-only", traced)
		}
		got, err := c.Decode(oldBuf)
		if err != nil {
			t.Fatalf("%T: old frame: %v", traced, err)
		}
		if !reflect.DeepEqual(normalizeMsg(untraced), normalizeMsg(got)) {
			t.Fatalf("%T: old frame did not decode to Trace==0:\n%#v", traced, got)
		}
	}
}

// TestRetiredTagsAreCorrupt pins the never-reuse rule: tag 0, the retired
// program-start message (5) and the three tags of the superseded index-query
// messages (the conditional IndexLookup/IndexResult layouts and IndexStats)
// decode as corruption, and the live index messages sit under the appended
// tags.
func TestRetiredTagsAreCorrupt(t *testing.T) {
	for _, tag := range []byte{0, 5, 9, 10, 18} {
		if _, err := transport.DecodePayload([]byte{tag, 1, 2}); !errors.Is(err, transport.ErrFrameCorrupt) {
			t.Fatalf("retired tag %d: got %v, want ErrFrameCorrupt", tag, err)
		}
	}
	if tagIndexLookup != 25 || tagIndexResult != 26 || tagNopRequest != 27 {
		t.Fatalf("index, NOP-request tags = %d, %d, %d; want the appended 25, 26, 27", tagIndexLookup, tagIndexResult, tagNopRequest)
	}
}

// TestFrameCodecRejectsTrailing pins the exactly-one-message contract.
func TestFrameCodecRejectsTrailing(t *testing.T) {
	var c frameCodec
	buf, _ := c.Append(nil, Nop{TS: ts(1, 0, 1), Seq: 1})
	if _, err := c.Decode(append(buf, 0xFF)); err == nil {
		t.Fatal("trailing bytes must fail decode")
	}
	if _, err := c.Decode(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated body must fail decode")
	}
	// Bytes after an already-present trace field are still corruption.
	traced, _ := c.Append(nil, TxForward{TS: ts(1, 0, 1), Seq: 1, Trace: 9})
	if _, err := c.Decode(append(traced, 0x01)); err == nil {
		t.Fatal("trailing bytes after the trace field must fail decode")
	}
}
