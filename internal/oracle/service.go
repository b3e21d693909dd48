package oracle

import (
	"sync"

	"weaver/internal/core"
)

// Client is the oracle interface Weaver servers (gatekeepers, shards) use.
// Implementations: *Service, the one oracle of a deployment (a state
// machine behind a mutex), and internal/remote's OracleClient, which
// reaches a Service in another process.
type Client interface {
	// QueryOrder returns the order of a relative to b, establishing
	// prefer (Before = a first, After = b first) if none exists.
	QueryOrder(a, b Event, prefer core.Order) (core.Order, error)
	// Ordered returns the current order, Concurrent if none established.
	Ordered(a, b Event) (core.Order, error)
	// AssignOrder commits first ≺ second, failing with ErrCycle if the
	// opposite order is already established.
	AssignOrder(first, second Event) error
	// GC drops all events strictly before the watermark.
	GC(watermark core.Timestamp) error
	// Stats returns activity counters.
	Stats() Stats
}

// Service is a mutex-guarded timeline oracle. Every deployment runs one:
// an in-process cluster calls it directly, and a weaverd store process
// serves it through internal/remote's OracleServer.
type Service struct {
	mu  sync.Mutex
	dag *DAG
}

// NewService returns an empty oracle service.
func NewService() *Service {
	return &Service{dag: NewDAG()}
}

// QueryOrder implements Client.
func (s *Service) QueryOrder(a, b Event, prefer core.Order) (core.Order, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dag.QueryOrder(a, b, prefer), nil
}

// Ordered implements Client.
func (s *Service) Ordered(a, b Event) (core.Order, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dag.Ordered(a, b), nil
}

// AssignOrder implements Client.
func (s *Service) AssignOrder(first, second Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dag.AssignOrder(first, second)
}

// GC implements Client.
func (s *Service) GC(watermark core.Timestamp) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dag.GC(watermark)
	return nil
}

// Stats implements Client.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dag.Stats()
}
