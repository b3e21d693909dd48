package transport_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"weaver/internal/core"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// wireCodec is internal/wire's codec, registered by its init after this
// package's test codec; the init below puts the test codec back for the
// package's own tests, and TestSendRetainsNothing swaps wireCodec in.
var wireCodec = transport.LoadFrameCodec()

func init() { transport.RegisterFrameCodec(transport.TestCodec) }

// TestSendRetainsNothing pins the Endpoint contract the shard's reused
// batch buffers rely on: once Send returns, the payload's memory is the
// sender's again. For every way a message can travel — the in-process
// fabric, two endpoints of one TCP node, and two TCP nodes — the sender
// overwrites a ProgDelta's result bytes and ID slices right after Send,
// and the receiver must still get the original values.
func TestSendRetainsNothing(t *testing.T) {
	transport.RegisterFrameCodec(wireCodec)
	defer transport.RegisterFrameCodec(transport.TestCodec)

	node := func(routes map[string]string) *transport.TCPNode {
		n, err := transport.NewTCPNode("127.0.0.1:0", routes)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		return n
	}
	pairs := map[string]func() (from, to transport.Endpoint){
		"fabric": func() (transport.Endpoint, transport.Endpoint) {
			f := transport.NewFabric()
			return f.Endpoint("shard/0"), f.Endpoint("gk/0")
		},
		"tcp same node": func() (transport.Endpoint, transport.Endpoint) {
			n := node(nil)
			return n.Endpoint("shard/0"), n.Endpoint("gk/0")
		},
		"tcp remote": func() (transport.Endpoint, transport.Endpoint) {
			recv := node(nil)
			send := node(map[string]string{"gk": recv.ListenAddr()})
			return send.Endpoint("shard/0"), recv.Endpoint("gk/0")
		},
	}
	delta := func() wire.ProgDelta {
		return wire.ProgDelta{
			QID:         core.ID{Epoch: 1, Owner: 1, Counter: 7},
			ConsumedIDs: []uint64{1, 2, 3},
			SpawnedIDs:  []uint64{4, 5},
			Results:     [][]byte{[]byte("alpha"), []byte("beta")},
			Trace:       9,
		}
	}
	for name, pair := range pairs {
		from, to := pair()
		sent := delta()
		if err := from.Send(to.Addr(), sent); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range sent.Results {
			copy(r, bytes.Repeat([]byte{'X'}, len(r)))
		}
		clear(sent.ConsumedIDs)
		clear(sent.SpawnedIDs)
		var got transport.Message
		select {
		case <-to.Recv():
			var ok bool
			if got, ok = to.Next(); !ok {
				t.Fatalf("%s: signalled with an empty mailbox", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: nothing delivered", name)
		}
		if want := delta(); !reflect.DeepEqual(got.Payload, want) {
			t.Errorf("%s: received %+v after the sender reused its buffers, want %+v", name, got.Payload, want)
		}
	}
}
