package workload

import (
	"fmt"
	"os"
	"strconv"
	"time"
)

// Logger is the subset of testing.TB the seed helper needs (kept as a
// local interface so non-test packages can import workload without
// dragging in testing).
type Logger interface {
	Logf(format string, args ...any)
}

// TestSeed returns the seed a randomized test must use for ALL of its
// randomness: $WEAVER_TEST_SEED when set (replay mode), otherwise derived
// from the wall clock. The chosen value is written both to the test log
// and to stderr — stderr so CI logs always carry it, even when the runner
// swallows t.Logf output of passing tests — making any stress-suite
// failure replayable exactly:
//
//	WEAVER_TEST_SEED=12345 go test -race -run 'TestStress/^serializable$' .
//
// Tests must derive per-goroutine generators from this one seed (e.g.
// rand.NewSource(seed+int64(i))) instead of sharing a rand.Rand across
// goroutines or seeding from time themselves.
func TestSeed(l Logger) int64 {
	seed, from := int64(0), "wall clock"
	if env := os.Getenv("WEAVER_TEST_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			panic(fmt.Sprintf("workload: bad WEAVER_TEST_SEED %q: %v", env, err))
		}
		seed, from = v, "$WEAVER_TEST_SEED"
	} else {
		seed = time.Now().UnixNano()
	}
	msg := fmt.Sprintf("test seed %d (from %s; replay with WEAVER_TEST_SEED=%d)", seed, from, seed)
	l.Logf("%s", msg)
	fmt.Fprintln(os.Stderr, "weaver:", msg)
	return seed
}
