package transport

import (
	"fmt"
	"strings"
	"testing"
)

// TestKnownAddrDecodeAllocatesNothing: the envelope of a frame between
// known addresses decodes without allocating; only the payload does.
func TestKnownAddrDecodeAllocatesNothing(t *testing.T) {
	tagged, err := AppendPayload(nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	payload := testing.AllocsPerRun(100, func() { _, _ = DecodePayload(tagged) })
	for _, ends := range [][2]Addr{{GatekeeperAddr(0), ShardAddr(1)}, {ShardAddr(3), "climgr"}, {"kv", "oracle"}} {
		buf, err := AppendFrame(nil, ends[0], ends[1], 7)
		if err != nil {
			t.Fatal(err)
		}
		var from, to Addr
		frame := testing.AllocsPerRun(100, func() { from, to, _, _ = DecodeFrame(buf[4:]) })
		if from != ends[0] || to != ends[1] {
			t.Fatalf("decoded %q → %q, want %q → %q", from, to, ends[0], ends[1])
		}
		if frame != payload {
			t.Errorf("%q → %q: frame decode %.0f allocs, payload alone %.0f: the envelope allocates", from, to, frame, payload)
		}
	}
}

// TestUnknownAddrDecodesExactCopy: an address outside the known set
// decodes to exactly what was sent, and does not alias the frame buffer
// (readers reuse it for the next frame).
func TestUnknownAddrDecodesExactCopy(t *testing.T) {
	long := Addr(strings.Repeat("x", 200))
	for _, ends := range [][2]Addr{{"client/9", ShardAddr(0)}, {GatekeeperAddr(1), long}, {"gk/", "shard/-1"}, {"", "gk/01"}} {
		buf, err := AppendFrame(nil, ends[0], ends[1], "payload")
		if err != nil {
			t.Fatal(err)
		}
		from, to, payload, err := DecodeFrame(buf[4:])
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'z'
		}
		if from != ends[0] || to != ends[1] || payload != "payload" {
			t.Fatalf("decoded %q → %q (%v), want %q → %q", from, to, payload, ends[0], ends[1])
		}
	}
}

// TestInternTableFixed: decoding ever new addresses leaves the known set as
// built at init, so a peer cannot grow it.
func TestInternTableFixed(t *testing.T) {
	n := len(knownAddrs)
	for i := range 5000 {
		buf, err := AppendFrame(nil, Addr(fmt.Sprintf("client/%d", i)), Addr(fmt.Sprintf("shard/%d", knownServers+i)), i)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := DecodeFrame(buf[4:]); err != nil {
			t.Fatal(err)
		}
	}
	if len(knownAddrs) != n {
		t.Fatalf("intern table grew from %d to %d entries", n, len(knownAddrs))
	}
	if n != 2*knownServers+3 {
		t.Fatalf("intern table holds %d entries, want %d", n, 2*knownServers+3)
	}
}
