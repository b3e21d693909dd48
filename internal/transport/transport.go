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
// between processes.
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
	"sync"
	"time"

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

// GatekeeperAddr returns the canonical address of gatekeeper i.
func GatekeeperAddr(i int) Addr { return Addr(fmt.Sprintf("gk/%d", i)) }

// ShardAddr returns the canonical address of shard i.
func ShardAddr(i int) Addr { return Addr(fmt.Sprintf("shard/%d", i)) }

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
type mailbox struct {
	mu     sync.Mutex
	queue  []Message
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
	if len(m.queue) == 0 {
		return Message{}, false
	}
	msg := m.queue[0]
	m.queue = m.queue[1:]
	if len(m.queue) > 0 {
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
	m.queue = nil
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
	// Encode the complete frame (addresses, tag, CRC) into a pooled buffer
	// and deliver the decoded copy: the receiver never shares memory with
	// the sender, exactly as over TCP.
	bp := getFrameBuf()
	buf, err := AppendFrame(*bp, e.addr, to, payload)
	if err != nil {
		putFrameBuf(bp)
		return err
	}
	metrics.Frames.Add(1)
	metrics.EncodedBytes.Add(uint64(len(buf)))
	_, _, decoded, err := DecodeFrame(buf[4:])
	*bp = buf
	putFrameBuf(bp)
	if err != nil {
		return err
	}
	metrics.DecodedBytes.Add(uint64(len(buf)))
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
