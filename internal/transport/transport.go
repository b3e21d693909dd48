// Package transport provides the message fabric connecting Weaver servers:
// gatekeepers, shard servers, the timeline oracle, and the cluster manager.
//
// Two endpoint providers with identical semantics carry the servers that
// internal/deploy constructs. The in-process Fabric (weaver.Open) has one
// unbounded mailbox per address: every Send encodes its payload as one wire
// frame (frame.go) and delivers the decoded deep copy, so an embedded
// cluster pays the codec and gets the copy semantics of a TCP deployment;
// latency and reordering can be injected on top (the transport tests'
// seams). The TCPNode in tcp.go (cmd/weaverd) moves the same frames
// between processes, and frames a send between two of its own endpoints
// the same way. So Send never keeps payload memory, whichever provider
// carries it: a sender may reuse its buffers as soon as Send returns.
//
// Delivery guarantees are deliberately weak — at-most-once, unordered when
// reordering is enabled — because Weaver's protocol supplies its own FIFO
// guarantee between each gatekeeper-shard pair using sequence numbers
// (§4.2). The Resequencer implements that receiver-side reordering buffer.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"weaver/internal/binenc"
	"weaver/internal/obs"
)

// WireMetrics counts frame traffic on either fabric. The fields are obs
// counter handles (nil-safe, so the zero value disables the accounting
// with no branches at the call sites).
type WireMetrics struct {
	// EncodedBytes / DecodedBytes count complete frame bytes (length
	// prefix included) on the encode and decode side respectively.
	EncodedBytes *obs.Counter
	DecodedBytes *obs.Counter
	// Frames counts frames encoded.
	Frames *obs.Counter
}

// NewWireMetrics resolves the weaver_wire_* counters in r, for either
// fabric. A nil registry yields nil handles, which disable the accounting.
func NewWireMetrics(r *obs.Registry) WireMetrics {
	return WireMetrics{
		EncodedBytes: r.Counter("weaver_wire_encoded_bytes_total"),
		DecodedBytes: r.Counter("weaver_wire_decoded_bytes_total"),
		Frames:       r.Counter("weaver_wire_frames_total"),
	}
}

// Addr identifies a server mailbox, e.g. "gk/0", "shard/2", "client/7".
type Addr string

// knownServers is how many gatekeeper and shard indexes have a precomputed
// address; a larger index builds its address per call.
const knownServers = 256

var (
	gkAddrs, shardAddrs [knownServers]Addr
	// knownAddrs holds every precomputed address — gk/i and shard/i for
	// i < knownServers, and the fixed role names of the cluster manager
	// (cluster.Addr), the backing store and the oracle. It is built once
	// at init and only read afterwards: decoded input never adds to it.
	knownAddrs = map[string]Addr{"climgr": "climgr", "kv": "kv", "oracle": "oracle"}
)

func init() {
	for i := range knownServers {
		gkAddrs[i] = Addr("gk/" + strconv.Itoa(i))
		shardAddrs[i] = Addr("shard/" + strconv.Itoa(i))
		knownAddrs[string(gkAddrs[i])] = gkAddrs[i]
		knownAddrs[string(shardAddrs[i])] = shardAddrs[i]
	}
}

// GatekeeperAddr returns the canonical address of gatekeeper i.
func GatekeeperAddr(i int) Addr {
	if i >= 0 && i < knownServers {
		return gkAddrs[i]
	}
	return Addr("gk/" + strconv.Itoa(i))
}

// ShardAddr returns the canonical address of shard i.
func ShardAddr(i int) Addr {
	if i >= 0 && i < knownServers {
		return shardAddrs[i]
	}
	return Addr("shard/" + strconv.Itoa(i))
}

// InternAddr returns the address spelled by b: the shared precomputed value
// for a known address, allocating nothing, and an exact copy otherwise (b
// may alias a reused read buffer). The known set is fixed at init — a peer
// sending ever new addresses cannot grow it — so its size is bounded by
// 2×knownServers plus the three role names.
func InternAddr(b []byte) Addr {
	if a, ok := knownAddrs[string(b)]; ok {
		return a
	}
	return Addr(b)
}

// DecodeAddr reads an address written with binenc.AppendStr, interned
// (InternAddr).
func DecodeAddr(d *binenc.Decoder) Addr {
	return InternAddr(d.RawStr())
}

// Message is one delivered payload with its origin.
type Message struct {
	From    Addr
	Payload any
}

// ErrClosed is returned when sending to or through a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrUnknown is returned when the destination address is not registered.
var ErrUnknown = errors.New("transport: unknown address")

// Endpoint is one server's connection to the fabric.
type Endpoint interface {
	// Addr returns this endpoint's address.
	Addr() Addr
	// Send frames payload and delivers the decoded copy to the mailbox at
	// to. It never blocks on the receiver (mailboxes are unbounded); a
	// payload type the registered FrameCodec does not own is an error.
	// Send keeps no payload memory: once it returns, the caller may
	// overwrite or reuse every slice and map the payload reaches.
	Send(to Addr, payload any) error
	// Recv returns a channel signalling message availability; drain with
	// Next.
	Recv() <-chan struct{}
	// Next pops the oldest pending message; ok=false when empty.
	Next() (Message, bool)
	// Close detaches the endpoint from the fabric.
	Close()
}

// mailbox is an unbounded FIFO with a level-triggered readiness channel.
// queue[head:] is pending. The array is reused: it is reset when the
// mailbox drains and compacted once the consumed prefix is at least half of
// it, so a backlog that never empties keeps an array under four times its
// largest length.
type mailbox struct {
	mu     sync.Mutex
	queue  []Message
	head   int
	ready  chan struct{}
	closed bool
}

func newMailbox() *mailbox {
	return &mailbox{ready: make(chan struct{}, 1)}
}

func (m *mailbox) push(msg Message) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	m.queue = append(m.queue, msg)
	m.mu.Unlock()
	select {
	case m.ready <- struct{}{}:
	default:
	}
	return true
}

func (m *mailbox) pop() (Message, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.head == len(m.queue) {
		return Message{}, false
	}
	msg := m.queue[m.head]
	m.queue[m.head] = Message{} // the array outlives the message
	m.head++
	switch {
	case m.head == len(m.queue):
		m.queue, m.head = m.queue[:0], 0
	case m.head >= cap(m.queue)/2:
		n := copy(m.queue, m.queue[m.head:])
		clear(m.queue[n:])
		m.queue, m.head = m.queue[:n], 0
	}
	if m.head < len(m.queue) {
		select {
		case m.ready <- struct{}{}:
		default:
		}
	}
	return msg, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.queue, m.head = nil, 0
	m.mu.Unlock()
}

// Fabric is the in-process network: a registry of mailboxes, framed
// delivery between them, and optional failure-mode injection.
type Fabric struct {
	mu    sync.RWMutex
	boxes map[Addr]*mailbox

	// Injection knobs (set before traffic flows, or guarded by callers).
	delayFn   func() time.Duration // per-message latency, nil = none
	reorderFn func() bool          // true = delay this message extra, nil = never
	rng       *rand.Rand
	rngMu     sync.Mutex

	// metrics counts frame traffic (WithWireMetrics).
	metrics WireMetrics
}

// NewFabric returns an empty in-process fabric.
func NewFabric() *Fabric {
	return &Fabric{boxes: make(map[Addr]*mailbox), rng: rand.New(rand.NewSource(1))}
}

// WithDelay configures a uniform random delay in [min, max) applied to every
// message, simulating network latency. Returns the fabric for chaining.
func (f *Fabric) WithDelay(min, max time.Duration) *Fabric {
	f.delayFn = func() time.Duration {
		if max <= min {
			return min
		}
		f.rngMu.Lock()
		d := min + time.Duration(f.rng.Int63n(int64(max-min)))
		f.rngMu.Unlock()
		return d
	}
	return f
}

// WithReorder makes a fraction p of messages take a detour (an extra delay),
// so they arrive out of order relative to their send order. Weaver's
// sequence-number resequencing must mask this.
func (f *Fabric) WithReorder(p float64, detour time.Duration) *Fabric {
	f.reorderFn = func() bool {
		f.rngMu.Lock()
		v := f.rng.Float64()
		f.rngMu.Unlock()
		return v < p
	}
	if f.delayFn == nil {
		f.delayFn = func() time.Duration { return 0 }
	}
	prev := f.delayFn
	f.delayFn = func() time.Duration {
		d := prev()
		if f.reorderFn() {
			d += detour
		}
		return d
	}
	return f
}

// WithWireMetrics installs frame-traffic counters. Returns the fabric for
// chaining.
func (f *Fabric) WithWireMetrics(m WireMetrics) *Fabric {
	f.mu.Lock()
	f.metrics = m
	f.mu.Unlock()
	return f
}

type endpoint struct {
	addr Addr
	box  *mailbox
	f    *Fabric
}

// Endpoint registers (or replaces) the mailbox at addr and returns it.
func (f *Fabric) Endpoint(addr Addr) Endpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	box := newMailbox()
	f.boxes[addr] = box
	return &endpoint{addr: addr, box: box, f: f}
}

func (e *endpoint) Addr() Addr            { return e.addr }
func (e *endpoint) Recv() <-chan struct{} { return e.box.ready }
func (e *endpoint) Next() (Message, bool) { return e.box.pop() }

func (e *endpoint) Close() {
	e.box.close()
	e.f.mu.Lock()
	if e.f.boxes[e.addr] == e.box {
		delete(e.f.boxes, e.addr)
	}
	e.f.mu.Unlock()
}

func (e *endpoint) Send(to Addr, payload any) error {
	e.f.mu.RLock()
	box, ok := e.f.boxes[to]
	delayFn := e.f.delayFn
	metrics := e.f.metrics
	e.f.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknown, to)
	}
	decoded, err := frameCopy(e.addr, to, payload, metrics)
	if err != nil {
		return err
	}
	msg := Message{From: e.addr, Payload: decoded}
	if delayFn != nil {
		if d := delayFn(); d > 0 {
			time.AfterFunc(d, func() { box.push(msg) })
			return nil
		}
	}
	if !box.push(msg) {
		return fmt.Errorf("%w: %s", ErrClosed, to)
	}
	return nil
}
