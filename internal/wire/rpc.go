package wire

import (
	"weaver/internal/core"
	"weaver/internal/oracle"
)

// Request/response messages for the services that live in their own
// processes under a TCP deployment: the backing store and the timeline
// oracle. Correlation is by (client address, ID).

// KVOp enumerates remote backing-store operations.
type KVOp uint8

// The remote KV operations.
const (
	KVGet KVOp = iota
	KVTxBegin
	KVTxGet
	KVTxPut
	KVTxDelete
	KVTxCommit
	KVTxAbort
	KVScan
)

// KVReq is one backing-store request.
type KVReq struct {
	ID     uint64
	Op     KVOp
	TxID   uint64 // for tx-scoped ops
	Key    string
	Value  []byte
	Prefix string // for KVScan
}

// KVResp answers a KVReq.
type KVResp struct {
	ID      uint64
	Value   []byte
	Version uint64
	OK      bool
	TxID    uint64
	Err     string
	// Scan results (KVScan): parallel key/value slices.
	Keys []string
	Vals [][]byte
}

// OracleOp enumerates remote timeline-oracle operations.
type OracleOp uint8

// The remote oracle operations.
const (
	OracleQueryOrder OracleOp = iota
	OracleOrdered
	OracleAssign
	OracleGC
	OracleStats
)

// OracleReq is one timeline-oracle request.
type OracleReq struct {
	ID     uint64
	Op     OracleOp
	A, B   oracle.Event
	Prefer core.Order
	WM     core.Timestamp
}

// OracleResp answers an OracleReq.
type OracleResp struct {
	ID    uint64
	Order core.Order
	Err   string
	Stats oracle.Stats
}

// PaxosOp enumerates remote Paxos acceptor operations, letting the
// cluster manager's proposer drive a quorum of acceptors spread across
// weaverd manager processes.
type PaxosOp uint8

// The remote acceptor operations (mirror paxos.AcceptorAPI).
const (
	PaxosPrepare PaxosOp = iota
	PaxosAccept
	PaxosLearn
	PaxosChosen
	PaxosMaxSeen
)

// PaxosReq is one acceptor request. Values cross the wire as opaque bytes
// (the cluster manager encodes its log entries before proposing).
type PaxosReq struct {
	ID   uint64
	Op   PaxosOp
	Slot uint64
	// Ballot (Prepare/Accept).
	N    uint64
	Prop int32
	// Proposed or learned value (Accept/Learn).
	Value    []byte
	HasValue bool
}

// PaxosResp answers a PaxosReq.
type PaxosResp struct {
	ID uint64
	// Prepare: OK = promise granted; Accept: OK = accepted.
	OK bool
	// Prepare: highest accepted ballot + value, if any. Chosen: the
	// learned value (HasValue = chosen).
	AccN     uint64
	AccProp  int32
	Value    []byte
	HasValue bool
	// MaxSeen result.
	Max uint64
	Err string
}
