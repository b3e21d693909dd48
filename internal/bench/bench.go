// Package bench provides the measurement utilities shared by the paper's
// §6 harness (internal/experiments, cmd/weaver-bench): latency recorders with
// percentile/CDF extraction, concurrent-client throughput drivers, and
// fixed-width table rendering for paper-style output.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Latencies collects duration samples (thread-safe).
type Latencies struct {
	mu      sync.Mutex
	samples []time.Duration
}

// Add records one sample.
func (l *Latencies) Add(d time.Duration) {
	l.mu.Lock()
	l.samples = append(l.samples, d)
	l.mu.Unlock()
}

// N returns the sample count.
func (l *Latencies) N() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.samples)
}

// sortedCopy returns the samples in ascending order.
func (l *Latencies) sortedCopy() []time.Duration {
	l.mu.Lock()
	cp := append([]time.Duration(nil), l.samples...)
	l.mu.Unlock()
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return cp
}

// Percentile returns the p-th percentile (p in [0,100]).
func (l *Latencies) Percentile(p float64) time.Duration {
	s := l.sortedCopy()
	if len(s) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(s)-1))
	return s[idx]
}

// Mean returns the average sample.
func (l *Latencies) Mean() time.Duration {
	s := l.sortedCopy()
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

// CDFPoint is one (latency, cumulative fraction) pair.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64
}

// CDF returns n evenly spaced points of the empirical CDF.
func (l *Latencies) CDF(n int) []CDFPoint {
	s := l.sortedCopy()
	if len(s) == 0 || n <= 0 {
		return nil
	}
	out := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		frac := float64(i) / float64(n)
		idx := int(frac*float64(len(s))) - 1
		if idx < 0 {
			idx = 0
		}
		out = append(out, CDFPoint{Latency: s[idx], Fraction: frac})
	}
	return out
}

// Throughput runs fn concurrently from `clients` goroutines for roughly the
// given duration and returns operations per second plus the recorded
// per-op latencies. fn receives the client index and the iteration count;
// it must be safe for concurrent use across distinct client indices.
func Throughput(clients int, d time.Duration, fn func(client, iter int) error) (opsPerSec float64, lat *Latencies, errs int) {
	lat = &Latencies{}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ops      int
		errCount int
	)
	deadline := time.Now().Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			localOps, localErrs := 0, 0
			for i := 0; time.Now().Before(deadline); i++ {
				t0 := time.Now()
				if err := fn(c, i); err != nil {
					localErrs++
				} else {
					lat.Add(time.Since(t0))
					localOps++
				}
			}
			mu.Lock()
			ops += localOps
			errCount += localErrs
			mu.Unlock()
		}(c)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	return float64(ops) / elapsed.Seconds(), lat, errCount
}

// Table renders rows with aligned columns, for paper-style terminal output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// Row appends a row; values are formatted with %v.
func (t *Table) Row(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		case time.Duration:
			row[i] = x.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
