// Command benchmark is the repository's one performance ledger: four
// workloads against an in-process weaver.Cluster, end-to-end metrics that
// repeat, per-layer probes and a traced run. See README.md.
//
//	go run ./benchmark                       # the whole ledger: result.json + trace.json
//	go run ./benchmark -runs 10              # ... with medians and spreads over ten seeds
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -workload tao_read -seed 7 -seconds 20 -trace 0   # what the PR driver runs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// gatedLayers are the per-layer metrics every workload reports, listed in
// BENCHMARK.json and printed by -workload ... -trace 1. The full ledger
// reports more (per-class wait shares, ratios whose denominator a
// workload may not have, the loopback TCP probe).
var gatedLayers = []string{
	"core.compare_ns",
	"wire.encode_ns.tx_forward", "wire.decode_ns.tx_forward", "wire.bytes_per_frame.tx_forward",
	"wire.encode_ns.prog_hops", "wire.decode_ns.prog_hops", "wire.bytes_per_frame.prog_hops",
	"transport.fabric_handoff_us",
	"kvstore.commit_us", "kvstore.durable_commit_us.1", "kvstore.durable_commit_us.2",
	"kvstore.syncs_per_commit", "kvstore.wal_bytes_per_commit",
	"oracle.assign_us.1k", "oracle.query_us.1k", "oracle.assign_us.10k", "oracle.query_us.10k", "oracle.msgs_per_op",
	"graph.apply_us_per_op", "graph.view_us.deg8", "graph.view_us.deg64", "graph.view_us.deg512",
	"graph.collect_ms", "graph.record_codec_us",
	"index.apply_us", "index.lookup_us", "index.postings",
	"plan.build_us",
	"nodeprog.visit_us", "nodeprog.params_codec_us",
	"gatekeeper.nops_per_op", "gatekeeper.announces_per_op",
	"shard.order_queries_per_op",
	"bulkload.edges_per_s", "bulkload.segments",
	"wait_share",
}

type options struct {
	seed    int64
	seconds int
	smoke   bool
	runs    int
	out     string
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	workload := fs.String("workload", "", "run this workload only and end with the one-line JSON the PR driver reads (default: the whole ledger)")
	trace := fs.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run and layer probes, per-layer metrics")
	cmp := fs.Bool("compare", false, "compare two result files: -compare a.json b.json; exits 1 if any metric regressed")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the graph, the op log and the probe inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "measured window per workload; warm-up is a tenth of it, the traced run a third")
	fs.BoolVar(&o.smoke, "smoke", false, "2 s windows, 1000-op probes, a small graph: exercises everything, measures nothing")
	fs.IntVar(&o.runs, "runs", 1, "ledger: repeat each untraced run on seeds seed, seed+1, ...; report medians and quartile spreads")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "weaver-benchmark"), "directory for result.json, trace.json and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *cmp {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files, got %d", fs.NArg()))
		}
		a, err := readResult(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readResult(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if a.Env.shape() != b.Env.shape() {
			return fail(fmt.Errorf("%s and %s were not run in the same shape (%+v vs %+v): nothing to compare", fs.Arg(0), fs.Arg(1), a.Env.shape(), b.Env.shape()))
		}
		if compare(stdout, a, b) {
			return 1
		}
		return 0
	}
	if o.seconds < 1 || o.runs < 1 || fs.NArg() != 0 {
		return fail(fmt.Errorf("bad arguments: -seconds and -runs must be at least 1, and there are no positional arguments"))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fail(err)
	}
	var ok bool
	var err error
	if *workload != "" {
		ok, err = driverRun(stdout, o, *workload, *trace == 1)
	} else {
		ok, err = ledger(stdout, o)
	}
	if err != nil {
		return fail(err)
	}
	if !ok {
		return fail(fmt.Errorf("outputs wrong or operations failed (failed_share > 0)"))
	}
	return 0
}

// untraced measures one workload with tracing at its shipped default.
func untraced(spec *workloadSpec, o options, seed int64) (*workloadResult, *runResult, error) {
	sz := sizesFor(o.seconds, o.smoke, false)
	run, err := runWorkload(spec, generateGraph(sz.vertices, seed), sz, seed, false, o.out)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	hash := oplogSHA256(oplog(spec, sz.vertices, seed, oplogPrefix))
	return summarize(run, hash), run, nil
}

// traced runs the workload on a fresh cluster with every operation
// sampled (the only configuration difference), then the layer probes, and
// returns the per-layer metrics and the trace. means are the per-class
// client latencies wait_share is taken against; nil means this run's own.
func traced(spec *workloadSpec, o options, means map[string]opStats) (map[string]metric, *traceDoc, *runResult, error) {
	sz := sizesFor(o.seconds, o.smoke, true)
	g := generateGraph(sz.vertices, o.seed)
	run, err := runWorkload(spec, g, sz, o.seed, true, o.out)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s traced: %w", spec.name, err)
	}
	tr := &tracer{t0: run.start, spans: run.spans}
	p := newProber(spec, g, o.seed, sz.probeOps, o.out, tr)
	if err := p.run(); err != nil {
		return nil, nil, nil, fmt.Errorf("%s probes: %w", spec.name, err)
	}
	layers := p.out
	clusterLayers(run, layers)
	if means == nil {
		means = summarize(run, "").Ops
	}
	waitShares(spec, layers, means)
	return layers, newTraceDoc(run, tr.spans), run, nil
}

func correct(run *runResult) bool { return run.failed == 0 && run.checkFail == 0 }

// driverRun is one run as the PR driver asks for it: one workload, one
// half (untraced or traced), and the contract's JSON object last.
func driverRun(stdout io.Writer, o options, name string, withTrace bool) (bool, error) {
	spec, found := findWorkload(name)
	if !found {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	metrics := map[string]metric{}
	var run *runResult
	if withTrace {
		layers, doc, r, err := traced(spec, o, nil)
		if err != nil {
			return false, err
		}
		run = r
		printWorkload(stdout, name, &workloadResult{Why: spec.why, Layers: layers})
		for _, k := range gatedLayers {
			m, ok := layers[k]
			if !ok {
				return false, fmt.Errorf("%s: per-layer metric %s was not measured", name, k)
			}
			metrics[k] = m
		}
		tf := traceFile{Schema: schemaVersion, Seed: o.seed, Workloads: map[string]*traceDoc{name: doc}}
		if err := writeJSON(filepath.Join(o.out, "trace.json"), tf); err != nil {
			return false, err
		}
	} else {
		w, r, err := untraced(spec, o, o.seed)
		if err != nil {
			return false, err
		}
		run = r
		printWorkload(stdout, name, w)
		for _, d := range e2eDefs {
			if d.gated {
				metrics[d.name] = w.E2E[d.name]
			}
		}
	}
	fmt.Fprintln(stdout, driverLine(correct(run), run.attempted+run.checks, run.failed+run.checkFail, metrics))
	return correct(run), nil
}

// ledger runs all four workloads, both halves each, and writes the
// versioned result and the trace.
func ledger(stdout io.Writer, o options) (bool, error) {
	res := result{
		Schema: schemaVersion, Seed: o.seed,
		Env:       currentEnv(sizesFor(o.seconds, o.smoke, false), o.seconds, o.runs, o.smoke),
		Workloads: map[string]*workloadResult{},
	}
	tf := traceFile{Schema: schemaVersion, Seed: o.seed, Workloads: map[string]*traceDoc{}}
	ok := true
	for i := range workloads {
		spec := &workloads[i]
		var first *workloadResult
		var e2e []map[string]metric
		for r := 0; r < o.runs; r++ {
			w, run, err := untraced(spec, o, o.seed+int64(r))
			if err != nil {
				return false, err
			}
			ok = ok && correct(run)
			e2e = append(e2e, w.E2E)
			if first == nil {
				first = w
			}
		}
		layers, doc, run, err := traced(spec, o, first.Ops)
		if err != nil {
			return false, err
		}
		ok = ok && correct(run)
		first.Layers = layers
		first.Diagnostics["trace_overhead_share"] = 1 - medianOfWindows(run.perSecond)/first.E2E["ops_per_s"].Value
		first.E2E = aggregate(e2e)
		res.Workloads[spec.name], tf.Workloads[spec.name] = first, doc
		printWorkload(stdout, spec.name, first)
	}
	resultPath, tracePath := filepath.Join(o.out, "result.json"), filepath.Join(o.out, "trace.json")
	if err := writeJSON(resultPath, res); err != nil {
		return false, err
	}
	if err := writeJSON(tracePath, tf); err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "\nwrote %s and %s\n", resultPath, tracePath)
	return ok, nil
}
