package remote

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"weaver/internal/kvstore"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// KVServer exposes a kvstore over the fabric. One instance serves every
// gatekeeper and recovering shard in the deployment.
type KVServer struct {
	*server[wire.KVReq, wire.KVResp]
	store *kvstore.Store

	mu     sync.Mutex
	nextTx uint64
	txs    map[uint64]*kvstore.Tx
}

// NewKVServer wraps store behind the endpoint.
func NewKVServer(ep transport.Endpoint, store *kvstore.Store) *KVServer {
	s := &KVServer{store: store, txs: make(map[uint64]*kvstore.Tx)}
	s.server = newServer(ep, s.handle)
	return s
}

func (s *KVServer) tx(id uint64) (*kvstore.Tx, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx, ok := s.txs[id]
	if !ok {
		return nil, fmt.Errorf("remote: unknown tx %d", id)
	}
	return tx, nil
}

func (s *KVServer) handle(req wire.KVReq) wire.KVResp {
	resp := wire.KVResp{ID: req.ID}
	switch req.Op {
	case wire.KVGet:
		resp.Value, resp.Version, resp.OK = s.store.GetVersioned(req.Key)
	case wire.KVTxBegin:
		s.mu.Lock()
		s.nextTx++
		resp.TxID = s.nextTx
		s.txs[resp.TxID] = s.store.Begin()
		s.mu.Unlock()
	case wire.KVTxGet:
		tx, err := s.tx(req.TxID)
		if err != nil {
			resp.Err = err.Error()
			break
		}
		var gerr error
		resp.Value, resp.Version, resp.OK, gerr = tx.GetVersioned(req.Key)
		resp.Err = errString(gerr)
	case wire.KVTxPut:
		tx, err := s.tx(req.TxID)
		if err != nil {
			resp.Err = err.Error()
			break
		}
		resp.Err = errString(tx.Put(req.Key, req.Value))
	case wire.KVTxDelete:
		tx, err := s.tx(req.TxID)
		if err != nil {
			resp.Err = err.Error()
			break
		}
		resp.Err = errString(tx.Delete(req.Key))
	case wire.KVTxCommit:
		tx, err := s.tx(req.TxID)
		if err != nil {
			resp.Err = err.Error()
			break
		}
		s.dropTx(req.TxID)
		resp.Err = errString(tx.Commit())
	case wire.KVTxAbort:
		if tx, err := s.tx(req.TxID); err == nil {
			s.dropTx(req.TxID)
			tx.Abort()
		}
	case wire.KVScan:
		s.store.ScanPrefix(req.Prefix, func(k string, v []byte) {
			resp.Keys = append(resp.Keys, k)
			resp.Vals = append(resp.Vals, v)
		})
	default:
		resp.Err = fmt.Sprintf("remote: unknown kv op %d", req.Op)
	}
	return resp
}

// errConflict is kvstore.ErrConflict on the wire: a repeated read or a
// commit that lost a race must still satisfy errors.Is on the client.
const errConflict = "conflict"

// errString renders a store error for KVResp.Err ("" = success).
func errString(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, kvstore.ErrConflict):
		return errConflict
	}
	return err.Error()
}

// respErr is the client-side inverse of errString.
func respErr(s string) error {
	switch s {
	case "":
		return nil
	case errConflict:
		return kvstore.ErrConflict
	}
	return errors.New(s)
}

func (s *KVServer) dropTx(id uint64) {
	s.mu.Lock()
	delete(s.txs, id)
	s.mu.Unlock()
}

// KVClient is a kvstore.Backing whose store lives behind the fabric.
type KVClient struct {
	c *caller
}

var _ kvstore.Backing = (*KVClient)(nil)

// NewKVClient connects to the KV server at addr through ep. The endpoint
// must be dedicated to this client (responses are demultiplexed by ID).
func NewKVClient(ep transport.Endpoint, addr transport.Addr, timeout time.Duration) *KVClient {
	return &KVClient{c: newCaller(ep, addr, timeout)}
}

func (k *KVClient) call(req wire.KVReq) (wire.KVResp, error) {
	out, err := k.c.call(func(id uint64) any {
		req.ID = id
		return req
	})
	if err != nil {
		return wire.KVResp{}, err
	}
	resp, ok := out.(wire.KVResp)
	if !ok {
		return wire.KVResp{}, fmt.Errorf("remote: unexpected response %T", out)
	}
	return resp, nil
}

// GetVersioned implements kvstore.Backing.
func (k *KVClient) GetVersioned(key string) ([]byte, uint64, bool) {
	resp, err := k.call(wire.KVReq{Op: wire.KVGet, Key: key})
	if err != nil {
		return nil, 0, false
	}
	return resp.Value, resp.Version, resp.OK
}

// ScanPrefix implements kvstore.Backing. A scan the server never answered
// is an error, never an empty result.
func (k *KVClient) ScanPrefix(prefix string, fn func(key string, value []byte)) error {
	resp, err := k.call(wire.KVReq{Op: wire.KVScan, Prefix: prefix})
	if err == nil {
		err = respErr(resp.Err)
	}
	if err != nil {
		return fmt.Errorf("remote: scan %q: %w", prefix, err)
	}
	for i, key := range resp.Keys {
		fn(key, resp.Vals[i])
	}
	return nil
}

// Close implements kvstore.Backing.
func (k *KVClient) Close() error {
	k.c.close()
	return nil
}

// Stats implements kvstore.Backing (remote stats are not aggregated).
func (k *KVClient) Stats() kvstore.Stats { return kvstore.Stats{} }

// Begin implements kvstore.Backing.
func (k *KVClient) Begin() kvstore.Txn {
	resp, err := k.call(wire.KVReq{Op: wire.KVTxBegin})
	if err != nil {
		return &remoteTx{k: k, err: err}
	}
	return &remoteTx{k: k, id: resp.TxID}
}

// remoteTx is a transaction handle whose state lives on the server.
type remoteTx struct {
	k   *KVClient
	id  uint64
	err error
}

func (t *remoteTx) GetVersioned(key string) ([]byte, uint64, bool, error) {
	if t.err != nil {
		return nil, 0, false, t.err
	}
	resp, err := t.k.call(wire.KVReq{Op: wire.KVTxGet, TxID: t.id, Key: key})
	if err != nil {
		return nil, 0, false, err
	}
	if err := respErr(resp.Err); err != nil {
		return nil, 0, false, err
	}
	return resp.Value, resp.Version, resp.OK, nil
}

func (t *remoteTx) Put(key string, value []byte) error {
	if t.err != nil {
		return t.err
	}
	resp, err := t.k.call(wire.KVReq{Op: wire.KVTxPut, TxID: t.id, Key: key, Value: value})
	if err != nil {
		return err
	}
	return respErr(resp.Err)
}

func (t *remoteTx) Delete(key string) error {
	if t.err != nil {
		return t.err
	}
	resp, err := t.k.call(wire.KVReq{Op: wire.KVTxDelete, TxID: t.id, Key: key})
	if err != nil {
		return err
	}
	return respErr(resp.Err)
}

func (t *remoteTx) Commit() error {
	if t.err != nil {
		return t.err
	}
	resp, err := t.k.call(wire.KVReq{Op: wire.KVTxCommit, TxID: t.id})
	if err != nil {
		return err
	}
	return respErr(resp.Err)
}

func (t *remoteTx) Abort() {
	if t.err != nil {
		return
	}
	t.k.call(wire.KVReq{Op: wire.KVTxAbort, TxID: t.id})
}
