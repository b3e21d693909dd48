package kvstore

// Backing is the interface Weaver servers use to reach the backing store:
// satisfied by *Store (in-process) and by remote.KVClient (a store living
// in another process, reached over the fabric). This mirrors the paper's
// deployment, where HyperDex Warp is its own cluster (§3.2).
type Backing interface {
	// GetVersioned returns the current value and monotonic version of key.
	// A store that does not answer is an error, never "absent".
	GetVersioned(key string) (value []byte, version uint64, ok bool, err error)
	// Begin opens an optimistic multi-key transaction.
	Begin() Txn
	// ScanPrefix streams all live keys with the prefix (recovery, §4.3);
	// on error the keys fn saw, if any, are not the whole answer.
	ScanPrefix(prefix string, fn func(key string, value []byte)) error
	// Close releases resources.
	Close() error
	// Stats reports store activity.
	Stats() Stats
}

// Txn is one transaction's handle.
type Txn interface {
	// GetVersioned reads a key, recording it for commit validation.
	GetVersioned(key string) (value []byte, version uint64, ok bool, err error)
	// Put buffers a write.
	Put(key string, value []byte) error
	// Delete buffers a deletion.
	Delete(key string) error
	// Commit validates and applies; ErrConflict on lost races.
	Commit() error
	// Abort discards the transaction.
	Abort()
}

var _ Backing = storeBacking{}

// storeBacking adapts *Store to Backing (Begin returns the concrete *Tx).
type storeBacking struct{ *Store }

// Begin implements Backing.
func (b storeBacking) Begin() Txn { return b.Store.Begin() }

// GetVersioned implements Backing; an in-memory read cannot fail.
func (b storeBacking) GetVersioned(key string) ([]byte, uint64, bool, error) {
	v, ver, ok := b.Store.GetVersioned(key)
	return v, ver, ok, nil
}

// AsBacking wraps the store in the Backing interface.
func AsBacking(s *Store) Backing { return storeBacking{s} }
