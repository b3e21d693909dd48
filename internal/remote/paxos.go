package remote

import (
	"errors"
	"fmt"
	"time"

	"weaver/internal/paxos"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// AcceptorServer exposes a Paxos acceptor over the fabric, so a quorum of
// manager replicas can vote on epoch log entries across processes. Each
// weaverd manager process runs one (cmd/weaverd -role manager).
type AcceptorServer struct {
	*server[wire.PaxosReq, wire.PaxosResp]
	acc *paxos.Acceptor
}

// NewAcceptorServer wraps acc behind ep.
func NewAcceptorServer(ep transport.Endpoint, acc *paxos.Acceptor) *AcceptorServer {
	s := &AcceptorServer{acc: acc}
	s.server = newServer(ep, s.handle)
	return s
}

func (s *AcceptorServer) handle(req wire.PaxosReq) wire.PaxosResp {
	resp := wire.PaxosResp{ID: req.ID}
	b := paxos.Ballot{N: req.N, Proposer: int(req.Prop)}
	var err error
	switch req.Op {
	case wire.PaxosPrepare:
		var pr paxos.Promise
		pr, err = s.acc.Prepare(req.Slot, b)
		if err == nil {
			resp.OK = pr.OK
			resp.AccN = pr.Accepted.N
			resp.AccProp = int32(pr.Accepted.Proposer)
			resp.HasValue = pr.HasValue
			if pr.HasValue {
				resp.Value, _ = pr.Value.([]byte)
			}
		}
	case wire.PaxosAccept:
		resp.OK, err = s.acc.Accept(req.Slot, b, req.Value)
	case wire.PaxosLearn:
		err = s.acc.Learn(req.Slot, req.Value)
		resp.OK = err == nil
	case wire.PaxosChosen:
		var v any
		var chosen bool
		v, chosen, err = s.acc.Chosen(req.Slot)
		if err == nil && chosen {
			resp.HasValue = true
			resp.Value, _ = v.([]byte)
		}
	case wire.PaxosMaxSeen:
		resp.Max, err = s.acc.MaxSeen()
	default:
		err = fmt.Errorf("remote: unknown paxos op %d", req.Op)
	}
	if err != nil {
		resp.Err = err.Error()
	}
	return resp
}

// AcceptorClient is a paxos.AcceptorAPI whose acceptor lives behind the
// fabric. Values must be []byte (the cluster manager's log entries are).
type AcceptorClient struct {
	c *caller
}

var _ paxos.AcceptorAPI = (*AcceptorClient)(nil)

// NewAcceptorClient connects to the acceptor server at addr through ep
// (the endpoint must be dedicated to this client).
func NewAcceptorClient(ep transport.Endpoint, addr transport.Addr, timeout time.Duration) *AcceptorClient {
	return &AcceptorClient{c: newCaller(ep, addr, timeout)}
}

// Close releases the client.
func (a *AcceptorClient) Close() { a.c.close() }

func (a *AcceptorClient) call(req wire.PaxosReq) (wire.PaxosResp, error) {
	out, err := a.c.call(func(id uint64) any {
		req.ID = id
		return req
	})
	if err != nil {
		return wire.PaxosResp{}, err
	}
	resp, ok := out.(wire.PaxosResp)
	if !ok {
		return wire.PaxosResp{}, fmt.Errorf("remote: unexpected response %T", out)
	}
	if resp.Err != "" {
		return resp, errors.New(resp.Err)
	}
	return resp, nil
}

// Prepare implements paxos.AcceptorAPI.
func (a *AcceptorClient) Prepare(slot uint64, b paxos.Ballot) (paxos.Promise, error) {
	resp, err := a.call(wire.PaxosReq{Op: wire.PaxosPrepare, Slot: slot, N: b.N, Prop: int32(b.Proposer)})
	if err != nil {
		return paxos.Promise{}, err
	}
	pr := paxos.Promise{
		OK:       resp.OK,
		Accepted: paxos.Ballot{N: resp.AccN, Proposer: int(resp.AccProp)},
		HasValue: resp.HasValue,
	}
	if resp.HasValue {
		pr.Value = resp.Value
	}
	return pr, nil
}

// Accept implements paxos.AcceptorAPI.
func (a *AcceptorClient) Accept(slot uint64, b paxos.Ballot, v any) (bool, error) {
	vb, ok := v.([]byte)
	if !ok {
		return false, fmt.Errorf("remote: paxos value must be []byte, got %T", v)
	}
	resp, err := a.call(wire.PaxosReq{Op: wire.PaxosAccept, Slot: slot, N: b.N, Prop: int32(b.Proposer), Value: vb, HasValue: true})
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// Learn implements paxos.AcceptorAPI.
func (a *AcceptorClient) Learn(slot uint64, v any) error {
	vb, ok := v.([]byte)
	if !ok {
		return fmt.Errorf("remote: paxos value must be []byte, got %T", v)
	}
	_, err := a.call(wire.PaxosReq{Op: wire.PaxosLearn, Slot: slot, Value: vb, HasValue: true})
	return err
}

// Chosen implements paxos.AcceptorAPI.
func (a *AcceptorClient) Chosen(slot uint64) (any, bool, error) {
	resp, err := a.call(wire.PaxosReq{Op: wire.PaxosChosen, Slot: slot})
	if err != nil {
		return nil, false, err
	}
	if !resp.HasValue {
		return nil, false, nil
	}
	return resp.Value, true, nil
}

// MaxSeen implements paxos.AcceptorAPI.
func (a *AcceptorClient) MaxSeen() (uint64, error) {
	resp, err := a.call(wire.PaxosReq{Op: wire.PaxosMaxSeen})
	if err != nil {
		return 0, err
	}
	return resp.Max, nil
}
