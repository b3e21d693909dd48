// Package remote provides the client/server adapters that let Weaver's
// shared services — the backing store and the timeline oracle — live in
// their own processes under a TCP deployment (cmd/weaverd), matching the
// paper's architecture where HyperDex Warp and the Kronos-style oracle are
// separate clusters (§3.2).
//
// Both services use simple correlated request/response over the transport
// fabric: each client goroutine's call blocks on a per-request channel
// until the response message arrives.
package remote

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"weaver/internal/transport"
	"weaver/internal/wire"
)

// ErrTimeout is returned when a remote call receives no response in time.
var ErrTimeout = errors.New("remote: call timed out")

// caller multiplexes request/response over one endpoint.
type caller struct {
	ep      transport.Endpoint
	to      transport.Addr
	timeout time.Duration

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan any

	stop     chan struct{}
	stopOnce sync.Once
}

func newCaller(ep transport.Endpoint, to transport.Addr, timeout time.Duration) *caller {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	c := &caller{
		ep:      ep,
		to:      to,
		timeout: timeout,
		pending: make(map[uint64]chan any),
		stop:    make(chan struct{}),
	}
	go c.recvLoop()
	return c
}

func (c *caller) close() { c.stopOnce.Do(func() { close(c.stop) }) }

func (c *caller) recvLoop() {
	for {
		select {
		case <-c.stop:
			return
		case <-c.ep.Recv():
			for {
				msg, ok := c.ep.Next()
				if !ok {
					break
				}
				id, payload := responseID(msg.Payload)
				c.mu.Lock()
				ch := c.pending[id]
				delete(c.pending, id)
				c.mu.Unlock()
				if ch != nil {
					ch <- payload
				}
			}
		}
	}
}

// server is the serve loop every fabric server runs: answer each Req that
// arrives on ep with handle's reply, until Stop.
type server[Req, Resp any] struct {
	ep     transport.Endpoint
	handle func(Req) Resp

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

func newServer[Req, Resp any](ep transport.Endpoint, handle func(Req) Resp) *server[Req, Resp] {
	return &server[Req, Resp]{ep: ep, handle: handle, stop: make(chan struct{}), done: make(chan struct{})}
}

// Start launches the serve loop.
func (s *server[Req, Resp]) Start() { go s.run() }

// Stop terminates the serve loop; safe to call more than once, from any
// goroutine.
func (s *server[Req, Resp]) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

func (s *server[Req, Resp]) run() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case <-s.ep.Recv():
			for msg, ok := s.ep.Next(); ok; msg, ok = s.ep.Next() {
				if req, ok := msg.Payload.(Req); ok {
					s.ep.Send(msg.From, s.handle(req))
				}
			}
		}
	}
}

// responseID extracts the correlation ID from a response payload.
func responseID(payload any) (uint64, any) {
	switch r := payload.(type) {
	case wire.KVResp:
		return r.ID, r
	case wire.OracleResp:
		return r.ID, r
	case wire.PaxosResp:
		return r.ID, r
	default:
		return 0, payload
	}
}

// call sends req (stamped with a fresh ID via stamp) and waits for the
// correlated response.
func (c *caller) call(stamp func(id uint64) any) (any, error) {
	ch := make(chan any, 1)
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()
	req := stamp(id)
	if err := c.ep.Send(c.to, req); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-time.After(c.timeout):
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrTimeout, c.to)
	case <-c.stop:
		return nil, errors.New("remote: client closed")
	}
}
