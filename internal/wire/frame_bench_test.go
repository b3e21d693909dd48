package wire

import (
	"testing"

	"weaver/internal/transport"
)

// Benchmarks of the frame codec on the hot gatekeeper↔shard path. Run
// with -benchmem; the alloc gate (alloc_gate_test.go) enforces the
// encode-side numbers in CI, these benchmarks document the magnitude
// (the ledger's wire.encode_ns.* / wire.decode_ns.* rows are the numbers
// a change is judged on).

func benchFrameEncode(b *testing.B, msg any) {
	var c frameCodec
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var ok bool
		if buf, ok = c.Append(buf[:0], msg); !ok {
			b.Fatalf("%T: no codec", msg)
		}
	}
}

func benchFrameDecode(b *testing.B, msg any) {
	var c frameCodec
	buf, ok := c.Append(nil, msg)
	if !ok {
		b.Fatalf("%T: no codec", msg)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameEncodeTxForward(b *testing.B) { benchFrameEncode(b, gateTxForward()) }
func BenchmarkFrameDecodeTxForward(b *testing.B) { benchFrameDecode(b, gateTxForward()) }

func BenchmarkFrameEncodeProgHops(b *testing.B) { benchFrameEncode(b, gateProgHops()) }
func BenchmarkFrameDecodeProgHops(b *testing.B) { benchFrameDecode(b, gateProgHops()) }

// BenchmarkFrameRoundTrip measures the complete wire path as a connection
// sees it: envelope, tag, payload, CRC — encode into a reused buffer plus
// decode back out.
func BenchmarkFrameRoundTrip(b *testing.B) {
	msg := gateTxForward()
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = transport.AppendFrame(buf[:0], "gk/0", "shard/1", msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err = transport.DecodeFrame(buf[4:]); err != nil {
			b.Fatal(err)
		}
	}
}
