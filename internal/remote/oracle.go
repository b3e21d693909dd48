package remote

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"weaver/internal/core"
	"weaver/internal/oracle"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// OracleServer exposes a timeline oracle over the fabric.
type OracleServer struct {
	*server[wire.OracleReq, wire.OracleResp]
	orc oracle.Client
}

// NewOracleServer wraps orc (direct or chain-replicated) behind ep.
func NewOracleServer(ep transport.Endpoint, orc oracle.Client) *OracleServer {
	s := &OracleServer{orc: orc}
	s.server = newServer(ep, s.handle)
	return s
}

func (s *OracleServer) handle(req wire.OracleReq) wire.OracleResp {
	resp := wire.OracleResp{ID: req.ID}
	var err error
	switch req.Op {
	case wire.OracleQueryOrder:
		resp.Order, err = s.orc.QueryOrder(req.A, req.B, req.Prefer)
	case wire.OracleOrdered:
		resp.Order, err = s.orc.Ordered(req.A, req.B)
	case wire.OracleAssign:
		err = s.orc.AssignOrder(req.A, req.B)
	case wire.OracleGC:
		err = s.orc.GC(req.WM)
	case wire.OracleStats:
		resp.Stats = s.orc.Stats()
	default:
		err = fmt.Errorf("remote: unknown oracle op %d", req.Op)
	}
	if err != nil {
		resp.Err = err.Error()
	}
	return resp
}

// OracleClient is an oracle.Client whose oracle lives behind the fabric.
type OracleClient struct {
	c *caller
}

var _ oracle.Client = (*OracleClient)(nil)

// NewOracleClient connects to the oracle server at addr through ep (the
// endpoint must be dedicated to this client).
func NewOracleClient(ep transport.Endpoint, addr transport.Addr, timeout time.Duration) *OracleClient {
	return &OracleClient{c: newCaller(ep, addr, timeout)}
}

// Close releases the client.
func (o *OracleClient) Close() { o.c.close() }

func (o *OracleClient) call(req wire.OracleReq) (wire.OracleResp, error) {
	out, err := o.c.call(func(id uint64) any {
		req.ID = id
		return req
	})
	if err != nil {
		return wire.OracleResp{}, err
	}
	resp, ok := out.(wire.OracleResp)
	if !ok {
		return wire.OracleResp{}, fmt.Errorf("remote: unexpected response %T", out)
	}
	if resp.Err != "" {
		// Re-map the cycle sentinel so errors.Is works across the wire.
		if strings.Contains(resp.Err, "would create a cycle") {
			return resp, fmt.Errorf("%w: %s", oracle.ErrCycle, resp.Err)
		}
		return resp, errors.New(resp.Err)
	}
	return resp, nil
}

// QueryOrder implements oracle.Client.
func (o *OracleClient) QueryOrder(a, b oracle.Event, prefer core.Order) (core.Order, error) {
	resp, err := o.call(wire.OracleReq{Op: wire.OracleQueryOrder, A: a, B: b, Prefer: prefer})
	if err != nil {
		return core.Concurrent, err
	}
	return resp.Order, nil
}

// Ordered implements oracle.Client.
func (o *OracleClient) Ordered(a, b oracle.Event) (core.Order, error) {
	resp, err := o.call(wire.OracleReq{Op: wire.OracleOrdered, A: a, B: b})
	if err != nil {
		return core.Concurrent, err
	}
	return resp.Order, nil
}

// AssignOrder implements oracle.Client.
func (o *OracleClient) AssignOrder(first, second oracle.Event) error {
	_, err := o.call(wire.OracleReq{Op: wire.OracleAssign, A: first, B: second})
	return err
}

// GC implements oracle.Client.
func (o *OracleClient) GC(wm core.Timestamp) error {
	_, err := o.call(wire.OracleReq{Op: wire.OracleGC, WM: wm})
	return err
}

// Stats implements oracle.Client.
func (o *OracleClient) Stats() oracle.Stats {
	resp, err := o.call(wire.OracleReq{Op: wire.OracleStats})
	if err != nil {
		return oracle.Stats{}
	}
	return resp.Stats
}
