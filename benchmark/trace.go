package main

import (
	"sort"

	"weaver"
	"weaver/internal/obs"
)

// traceDoc is one workload's entry in trace.json: the benchmark's own
// spans (client ops as roots, layer-probe calls under the probe tree) and
// the cluster's counters and histograms at the window's two boundaries.
type traceDoc struct {
	WindowS      float64            `json:"window_s"`
	Spans        []span             `json:"spans"`
	SelfTimeUS   map[string]float64 `json:"self_time_us"` // summed per "layer/name"
	StatsStart   weaver.Stats       `json:"stats_start"`
	StatsEnd     weaver.Stats       `json:"stats_end"`
	MetricsStart obs.Snapshot       `json:"metrics_start"`
	MetricsEnd   obs.Snapshot       `json:"metrics_end"`
}

type traceFile struct {
	Schema    int                  `json:"schema"`
	Seed      int64                `json:"seed"`
	Workloads map[string]*traceDoc `json:"workloads"`
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover (overlapping children are counted
// once, and only where they lie inside the parent).
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

func newTraceDoc(run *runResult, spans []span) *traceDoc {
	doc := &traceDoc{
		WindowS: run.sz.window.Seconds(), Spans: spans, SelfTimeUS: map[string]float64{},
		StatsStart: run.statsStart, StatsEnd: run.statsEnd,
		MetricsStart: run.metricsStart, MetricsEnd: run.metricsEnd,
	}
	self := selfTimes(spans)
	for _, s := range spans {
		doc.SelfTimeUS[s.Layer+"/"+s.Name] += self[s.ID]
	}
	return doc
}
