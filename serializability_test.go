// Shard stop under failure injection. The strict-serializability stress
// suite is TestStress/serializable and /serializable_migration
// (stress_test.go).
package weaver_test

import (
	"testing"

	"weaver"
)

// TestShardStopIdempotent: CrashShard (failure injection) followed by Close
// stops the same shard twice, which must not double-close its stop channel.
func TestShardStopIdempotent(t *testing.T) {
	c, err := weaver.Open(weaver.Config{Gatekeepers: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		tx.CreateVertex("v")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c.CrashShard(0)
	if err := c.Close(); err != nil {
		t.Fatalf("close after crash: %v", err)
	}
}
