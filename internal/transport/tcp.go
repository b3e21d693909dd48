package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
)

// TCPNode is the multi-process fabric: one node per OS process, hosting
// any number of local endpoints and routing remote sends over persistent
// TCP connections carrying binary wire frames (frame.go): length-prefixed,
// CRC-32C-checked, payloads encoded by the registered FrameCodec
// (internal/wire's, one hand-rolled codec per message). A send between two
// endpoints of the same node is framed and decoded too (frameCopy, as on
// the in-process Fabric), so no delivery shares memory with its sender.
// Sending a type the codec does not own fails that Send and leaves the
// connection intact.
//
// Routing is static: a table from logical address prefix to "host:port".
// Routes resolve most-specific first: an exact address match, then the
// prefix before '/' (so "gk" → coordinator host routes every gatekeeper).
// Connections are full duplex and learned: replies flow back over the
// connection the destination last contacted us on, so only forward paths
// need static routes (reverse-path learning).
type TCPNode struct {
	mu       sync.Mutex
	listener net.Listener
	local    map[Addr]*mailbox
	routes   map[string]string
	conns    map[string]*tcpConn
	inbound  map[*tcpConn]struct{}
	// learned maps sender addresses to the connection they last arrived
	// on (reverse-path learning).
	learned map[Addr]*tcpConn
	// dialing tracks one in-flight dial per host so concurrent Sends to
	// the same host coalesce on it — and, critically, so no dial ever
	// runs under mu: one unreachable route must not stall sends to other
	// hosts, the accept loop, or read-loop cleanup.
	dialing map[string]*pendingDial
	// dial opens one raw connection (net.Dial by default; tests inject
	// blackholes and fault wrappers here).
	dial    func(host string) (net.Conn, error)
	metrics WireMetrics
	closed  bool
	wg      sync.WaitGroup
}

// pendingDial is the per-host in-flight dial state: waiters block on done,
// then read c/err.
type pendingDial struct {
	done chan struct{}
	c    *tcpConn
	err  error
}

// tcpConn is one live connection. mu serializes frame writes; close is
// idempotent — a connection is reachable from conns, inbound, and learned
// at once, and teardown paths overlap (Send write errors, read-loop
// cleanup, node Close).
type tcpConn struct {
	mu        sync.Mutex
	c         net.Conn
	closeOnce sync.Once
}

func (c *tcpConn) close() { c.closeOnce.Do(func() { c.c.Close() }) }

// NewTCPNode listens on listen (e.g. ":7001") and routes remote addresses
// through the given table. Keys are either full addresses ("shard/2") or
// address-class prefixes ("shard", "gk", "climgr"). Routes may be extended
// later with SetRoute (useful when bootstrapping with ":0" listeners).
func NewTCPNode(listen string, routes map[string]string) (*TCPNode, error) {
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	n := &TCPNode{
		listener: l,
		local:    make(map[Addr]*mailbox),
		routes:   make(map[string]string, len(routes)),
		conns:    make(map[string]*tcpConn),
		inbound:  make(map[*tcpConn]struct{}),
		learned:  make(map[Addr]*tcpConn),
		dialing:  make(map[string]*pendingDial),
		dial:     func(host string) (net.Conn, error) { return net.Dial("tcp", host) },
	}
	for k, v := range routes {
		n.routes[k] = v
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// SetRoute adds or replaces one routing entry.
func (n *TCPNode) SetRoute(prefix, host string) {
	n.mu.Lock()
	n.routes[prefix] = host
	n.mu.Unlock()
}

// Instrument installs frame-traffic counters. Call before traffic flows
// (connections opened later pick the counters up; existing read loops
// keep their previous handles).
func (n *TCPNode) Instrument(m WireMetrics) {
	n.mu.Lock()
	n.metrics = m
	n.mu.Unlock()
}

// ListenAddr returns the node's bound address (useful with ":0").
func (n *TCPNode) ListenAddr() string { return n.listener.Addr().String() }

// Close shuts the node down: the listener, all connections, all local
// mailboxes.
func (n *TCPNode) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.listener.Close()
	conns := make([]*tcpConn, 0, len(n.conns)+len(n.inbound))
	for _, c := range n.conns {
		conns = append(conns, c)
	}
	for c := range n.inbound {
		conns = append(conns, c)
	}
	n.conns = make(map[string]*tcpConn)
	n.inbound = make(map[*tcpConn]struct{})
	n.learned = make(map[Addr]*tcpConn)
	for _, box := range n.local {
		box.close()
	}
	n.mu.Unlock()
	// Outbound connections appear in conns and may also be learned;
	// close() is idempotent so the overlap is harmless.
	for _, c := range conns {
		c.close()
	}
	n.wg.Wait()
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return
		}
		tc := &tcpConn{c: conn}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			tc.close()
			return
		}
		n.inbound[tc] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.readLoop(tc)
	}
}

// dropConn tears one connection down and removes every reference to it:
// the host table, the inbound set, and any learned reverse paths — a dead
// connection must not stay reachable from Send.
func (n *TCPNode) dropConn(tc *tcpConn) {
	n.mu.Lock()
	for host, c := range n.conns {
		if c == tc {
			delete(n.conns, host)
		}
	}
	delete(n.inbound, tc)
	for addr, c := range n.learned {
		if c == tc {
			delete(n.learned, addr)
		}
	}
	n.mu.Unlock()
	tc.close()
}

func (n *TCPNode) readLoop(tc *tcpConn) {
	defer n.wg.Done()
	defer n.dropConn(tc)
	n.mu.Lock()
	metrics := n.metrics
	n.mu.Unlock()
	fr := &frameReader{r: bufio.NewReaderSize(tc.c, 1<<16), decoded: metrics.DecodedBytes}
	for {
		from, to, payload, err := fr.next()
		if err != nil {
			// io error (peer gone) or corrupt frame: the stream cannot
			// be resynchronized either way, drop the connection.
			return
		}
		n.mu.Lock()
		box := n.local[to]
		n.learned[from] = tc
		n.mu.Unlock()
		if box != nil {
			box.push(Message{From: from, Payload: payload})
		}
	}
}

// route resolves the remote host for a logical address.
func (n *TCPNode) route(to Addr) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if host, ok := n.routes[string(to)]; ok {
		return host, true
	}
	for i := 0; i < len(to); i++ {
		if to[i] == '/' {
			host, ok := n.routes[string(to[:i])]
			return host, ok
		}
	}
	return "", false
}

// conn returns the established connection to host, dialing one if needed.
// The dial itself runs outside the node mutex: concurrent calls for the
// same host coalesce on per-host pending state, and an unreachable host
// stalls only its own callers — never sends to other hosts, the accept
// loop, or connection cleanup.
func (n *TCPNode) conn(host string) (*tcpConn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := n.conns[host]; ok {
		n.mu.Unlock()
		return c, nil
	}
	if p, ok := n.dialing[host]; ok {
		n.mu.Unlock()
		<-p.done
		if p.err != nil {
			return nil, p.err
		}
		return p.c, nil
	}
	p := &pendingDial{done: make(chan struct{})}
	n.dialing[host] = p
	dial := n.dial
	n.mu.Unlock()

	raw, err := dial(host)

	n.mu.Lock()
	delete(n.dialing, host)
	if err == nil && n.closed {
		raw.Close()
		err = ErrClosed
	}
	if err != nil {
		p.err = err
		n.mu.Unlock()
		close(p.done)
		return nil, err
	}
	tc := &tcpConn{c: raw}
	p.c = tc
	n.conns[host] = tc
	// Connections are full duplex: the peer answers requests over the
	// same connection (reverse-path learning), so outbound connections
	// need a read loop too. They are tracked in conns only — readLoop
	// and Close find them there; registering them in inbound as well
	// would double-close them.
	n.wg.Add(1)
	n.mu.Unlock()
	close(p.done)
	go n.readLoop(tc)
	return tc, nil
}

type tcpEndpoint struct {
	addr Addr
	box  *mailbox
	n    *TCPNode
}

// Endpoint registers a local mailbox at addr.
func (n *TCPNode) Endpoint(addr Addr) Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	box := newMailbox()
	n.local[addr] = box
	return &tcpEndpoint{addr: addr, box: box, n: n}
}

func (e *tcpEndpoint) Addr() Addr            { return e.addr }
func (e *tcpEndpoint) Recv() <-chan struct{} { return e.box.ready }
func (e *tcpEndpoint) Next() (Message, bool) { return e.box.pop() }

func (e *tcpEndpoint) Close() {
	e.box.close()
	e.n.mu.Lock()
	if e.n.local[e.addr] == e.box {
		delete(e.n.local, e.addr)
	}
	e.n.mu.Unlock()
}

func (e *tcpEndpoint) Send(to Addr, payload any) error {
	// Same-node delivery takes the in-process Fabric's path: framed and
	// decoded, so the receiver gets its own copy, as from a remote host.
	e.n.mu.Lock()
	box := e.n.local[to]
	metrics := e.n.metrics
	e.n.mu.Unlock()
	if box != nil {
		decoded, err := frameCopy(e.addr, to, payload, metrics)
		if err != nil {
			return err
		}
		if !box.push(Message{From: e.addr, Payload: decoded}) {
			return fmt.Errorf("%w: %s", ErrClosed, to)
		}
		return nil
	}
	// Prefer the static route; when it has no connection and the dial
	// fails, fall back to the connection the destination last contacted
	// us on (reverse-path learning) before surfacing the dial error —
	// the peer may be reachable even while the routed listener is not.
	var c *tcpConn
	if host, ok := e.n.route(to); ok {
		var dialErr error
		c, dialErr = e.n.conn(host)
		if dialErr != nil {
			e.n.mu.Lock()
			c = e.n.learned[to]
			e.n.mu.Unlock()
			if c == nil {
				return dialErr
			}
		}
	} else {
		e.n.mu.Lock()
		c = e.n.learned[to]
		e.n.mu.Unlock()
		if c == nil {
			return fmt.Errorf("%w: %s", ErrUnknown, to)
		}
	}
	return e.n.send(c, e.addr, to, payload)
}

// send encodes one frame into a pooled buffer and writes it. An encode
// error leaves the connection untouched (nothing was written); a write
// error tears the connection down everywhere it is reachable, so the next
// send redials (routed) or waits for the peer to reconnect (learned).
func (n *TCPNode) send(c *tcpConn, from, to Addr, payload any) error {
	bp := getFrameBuf()
	buf, err := AppendFrame(*bp, from, to, payload)
	if err != nil {
		putFrameBuf(bp)
		return err
	}
	n.mu.Lock()
	metrics := n.metrics
	n.mu.Unlock()
	metrics.Frames.Add(1)
	metrics.EncodedBytes.Add(uint64(len(buf)))
	c.mu.Lock()
	_, werr := c.c.Write(buf)
	c.mu.Unlock()
	*bp = buf
	putFrameBuf(bp)
	if werr != nil {
		n.dropConn(c)
	}
	return werr
}
