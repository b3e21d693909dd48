package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {0, 1}, {100, 10}, {1, 1}, {51, 6}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestMedianOfWindows(t *testing.T) {
	// One stalled second drags the mean (750) but not the median (1000).
	if got := medianOfWindows([]int{1000, 1010, 990, 1000, 0, 1005, 995}); got != 1000 {
		t.Errorf("medianOfWindows = %v, want 1000", got)
	}
	if got := medianOfWindows([]int{4, 2}); got != 3 {
		t.Errorf("even count: got %v, want 3", got)
	}
}

// The expected values come from Python's statistics.quantiles(v, n=4),
// the rule the PR driver applies.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{10, 12, 11, 13, 9, 14, 10.5, 12.5, 11.5, 10}, 0.23333333333333334},
		{[]float64{3, 1}, 1.5},
		{[]float64{5, 5, 5}, 0},
		{[]float64{1.2, 1.25, 1.22, 1.9, 1.21, 1.23, 1.24}, 0.032520325203252064},
		{[]float64{7}, 0},
	} {
		if got := quartileSpread(c.v); !near(got, c.want) {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // only the part inside the parent counts
		{ID: 5, Parent: 3, Start: 25, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if !near(self[id], want) {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestOplogHashIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		a := oplogSHA256(oplog(spec, 5000, 7, 2000))
		b := oplogSHA256(oplog(spec, 5000, 7, 2000))
		c := oplogSHA256(oplog(spec, 5000, 8, 2000))
		if a != b {
			t.Errorf("%s: one seed, two hashes: %s %s", spec.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 hash equal: %s", spec.name, a)
		}
	}
	g1, g2 := generateGraph(500, 3), generateGraph(500, 3)
	if !reflect.DeepEqual(g1, g2) {
		t.Error("generateGraph is not deterministic")
	}
}

// The generator promises the executor that a delete always finds a live
// edge of the same client.
func TestGeneratorNeverDeletesFromAnEmptyLedger(t *testing.T) {
	spec, _ := findWorkload("write_durable")
	g := newOpGen(spec, 1000, 1, 0)
	live := 0
	for i := 0; i < 20000; i++ {
		switch o := g.next(); o.class {
		case opCreateEdge:
			live++
		case opDeleteEdge:
			if live == 0 {
				t.Fatalf("op %d deletes with no live edge", i)
			}
			live--
		case opSetCity:
			if o.v%numClients != 0 {
				t.Fatalf("client 0 writes city on vertex %d, not its own", o.v)
			}
		}
	}
}

func sampleResult() *result {
	return &result{
		Schema: schemaVersion, Seed: 5,
		Env: envInfo{GoVersion: "go1.24", Clients: 2, Seconds: 30, Runs: 3},
		Workloads: map[string]*workloadResult{"tao_read": {
			Why: "because",
			E2E: map[string]metric{
				"ops_per_s":    {Value: 1000, Unit: "op/s", Better: "higher", Bound: 0.1, N: 30000, Values: []float64{990, 1000, 1010}, Spread: 0.02},
				"main_p50_ms":  {Value: 1.2, Unit: "ms", Better: "lower", Bound: 0.1, N: 30000},
				"failed_share": {Value: 0, Unit: "ratio", Better: "lower"},
			},
			Diagnostics: map[string]any{"oplog_sha256": "ab"},
			Layers:      map[string]metric{"core.compare_ns": {Value: 9.5, Unit: "ns"}},
			Ops:         map[string]opStats{"get_node": {N: 10, P50MS: 1, P95MS: 2, MeanMS: 1.1}},
		}},
	}
}

func TestResultSchemaRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	want := sampleResult()
	if err := writeJSON(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	want.Schema = schemaVersion + 1
	if err := writeJSON(path, want); err != nil {
		t.Fatal(err)
	}
	if _, err := readResult(path); err == nil {
		t.Error("a newer schema was read without complaint")
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(r *result, name string, v, spread float64) {
		m := r.Workloads["tao_read"].E2E[name]
		m.Value, m.Spread = v, spread
		r.Workloads["tao_read"].E2E[name] = m
	}
	ops, _ := findE2E("ops_per_s")
	p50, _ := findE2E("main_p50_ms")
	for _, c := range []struct {
		name      string
		edit      func(b *result)
		regressed bool
		want      string
	}{
		{"same", func(*result) {}, false, "ok"},
		{"throughput down by half the bound", func(b *result) { set(b, "ops_per_s", 1000*(1-ops.bound/2), 0.02) }, false, "ok"},
		{"throughput down by twice the bound", func(b *result) { set(b, "ops_per_s", 1000*(1-2*ops.bound), 0.02) }, true, "regressed"},
		{"throughput up", func(b *result) { set(b, "ops_per_s", 2000, 0.02) }, false, "ok"},
		{"latency up by twice the bound", func(b *result) { set(b, "main_p50_ms", 1.2*(1+2*p50.bound), 0) }, true, "regressed"},
		{"too noisy to tell", func(b *result) { set(b, "ops_per_s", 1000*(1-2*ops.bound), 2*ops.bound) }, false, "unresolved"},
		{"any failure", func(b *result) { set(b, "failed_share", 0.001, 0) }, true, "regressed"},
	} {
		a, b := sampleResult(), sampleResult()
		c.edit(b)
		var out bytes.Buffer
		if got := compare(&out, a, b); got != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, got, c.regressed, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: no %q verdict in\n%s", c.name, c.want, out.String())
		}
	}
}

// BENCHMARK.json is read by the PR driver; the code is what prints. They
// must name the same workloads and metrics with the same units and bounds.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	gated := 0
	for _, d := range e2eDefs {
		if d.gated {
			gated++
		}
	}
	if len(bj.EndToEnd) != gated {
		t.Errorf("BENCHMARK.json gates %d end-to-end metrics, the code %d", len(bj.EndToEnd), gated)
	}
	for _, m := range bj.EndToEnd {
		d, ok := findE2E(m.Name)
		if !ok || !d.gated || d.unit != m.Unit || d.better != m.Better || d.bound != m.Bound {
			t.Errorf("end-to-end metric %+v does not match the code's %+v", m, d)
		}
	}
	var names []string
	for _, m := range bj.PerLayer {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, gatedLayers) {
		t.Errorf("per-layer names differ:\n BENCHMARK.json %v\n code           %v", names, gatedLayers)
	}
}

func TestDriverLine(t *testing.T) {
	line := driverLine(true, 1000, 0, map[string]metric{"setup_s": {Value: 0.8127, Unit: "s", Better: "lower", Bound: 0.25}})
	want := `{"correct":true,"attempted":1000,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}`
	if line != want {
		t.Errorf("driver line\n got %s\nwant %s", line, want)
	}
}

// One -smoke ledger end to end: every workload verifies, every gated
// metric is present, and both files are written and readable.
func TestSmokeLedgerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four clusters for a few seconds each")
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-smoke", "-seed", "3", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	res, err := readResult(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range workloads {
		w := res.Workloads[spec.name]
		if w == nil {
			t.Fatalf("%s missing from result.json", spec.name)
		}
		for _, d := range e2eDefs {
			if _, ok := w.E2E[d.name]; d.gated && !ok {
				t.Errorf("%s: end-to-end metric %s missing", spec.name, d.name)
			}
		}
		if fs := w.E2E["failed_share"]; fs.Value != 0 {
			t.Errorf("%s: failed_share = %v: %v", spec.name, fs.Value, w.Diagnostics["errors"])
		}
		for _, k := range gatedLayers {
			if m, ok := w.Layers[k]; !ok || math.IsNaN(m.Value) {
				t.Errorf("%s: per-layer metric %s missing", spec.name, k)
			}
		}
		if w.Diagnostics["oplog_sha256"] == "" || w.Diagnostics["trace_overhead_share"] == nil {
			t.Errorf("%s: diagnostics incomplete: %v", spec.name, w.Diagnostics)
		}
	}
	if _, ok := res.Workloads["write_durable"].Layers["kvstore.recovery_s"]; !ok {
		t.Error("write_durable did not report kvstore.recovery_s")
	}
	data, err := os.ReadFile(filepath.Join(out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	for _, spec := range workloads {
		doc := tf.Workloads[spec.name]
		if doc == nil || len(doc.Spans) == 0 || len(doc.SelfTimeUS) == 0 {
			t.Fatalf("%s: trace.json has no spans", spec.name)
		}
		roots, probes := 0, 0
		for _, s := range doc.Spans {
			if s.Layer == "client" {
				roots++
			} else if s.Parent != 0 {
				probes++
			}
			if s.End < s.Start {
				t.Fatalf("%s: span %d ends before it starts", spec.name, s.ID)
			}
		}
		if roots == 0 || probes == 0 {
			t.Errorf("%s: %d client spans, %d probe spans", spec.name, roots, probes)
		}
	}
	entries, _ := os.ReadDir(out)
	if len(entries) != 2 {
		t.Errorf("scratch files left behind in %s: %v", out, entries)
	}
}
