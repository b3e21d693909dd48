package transport

import (
	"errors"
	"fmt"
	"testing"

	"weaver/internal/binenc"
)

// testCodec is the tiny FrameCodec this package's own tests frame with
// (internal/wire, the real one, imports this package): strings under tag 1,
// ints under tag 2, nothing else.
type testCodec struct{}

func init() { RegisterFrameCodec(testCodec{}) }

func (testCodec) Append(buf []byte, payload any) ([]byte, bool) {
	switch m := payload.(type) {
	case string:
		return binenc.AppendStr(append(buf, 1), m), true
	case int:
		return binenc.AppendVarint(append(buf, 2), int64(m)), true
	}
	return buf, false
}

func (testCodec) Decode(data []byte) (any, error) {
	d := binenc.Decoder{Buf: data[1:]}
	var v any
	switch data[0] {
	case 1:
		v = d.Str()
	case 2:
		v = int(d.Varint())
	default:
		return nil, fmt.Errorf("test codec: unknown tag %d", data[0])
	}
	if d.Err != nil || len(d.Buf) != 0 {
		return nil, fmt.Errorf("test codec: bad body (err %v, %d trailing)", d.Err, len(d.Buf))
	}
	return v, nil
}

// TestUnownedPayloadIsEncodeError pins the single-encoding contract: a
// type the codec does not own emits nothing — on the in-process fabric it
// is a Send error and nothing is delivered, exactly as over TCP — and
// unknown tags, the retired tag 0 included, decode as corruption.
func TestUnownedPayloadIsEncodeError(t *testing.T) {
	prefix := []byte("keep")
	buf, err := AppendFrame(prefix, "a", "b", struct{ X int }{1})
	if err == nil {
		t.Fatal("a payload type with no codec must fail to encode")
	}
	if string(buf) != "keep" {
		t.Fatalf("failed encode emitted bytes: %q", buf)
	}
	f := NewFabric()
	a, b := f.Endpoint("a"), f.Endpoint("b")
	if err := a.Send("b", struct{ X int }{1}); err == nil {
		t.Fatal("the in-process fabric delivered a payload no codec owns")
	}
	if _, ok := b.Next(); ok {
		t.Fatal("a failed Send left a message in the mailbox")
	}
	for _, tag := range []byte{0, 3} {
		if _, err := DecodePayload([]byte{tag, 1, 2}); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("tag %d: got %v, want ErrFrameCorrupt", tag, err)
		}
	}
}
