package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// A traced run records its own spans in an obs.Recorder: a root span for the
// run, with one child around each call the benchmark makes into a layer, so
// a layer's self time (its span minus its child spans) can be reported. In
// an untraced run the root span is nil and every span call does nothing.

// timed runs fn inside a child span of parent and returns its wall time in
// seconds. Spans recorded this way have no children, so the time is the
// layer's self time.
func timed(parent *obs.Span, name string, fn func() error) (float64, error) {
	s := parent.Child(name)
	began := time.Now()
	err := fn()
	secs := time.Since(began).Seconds()
	s.End(err)
	return secs, err
}

// selfTimes sums, per span name, each span's duration minus the durations
// of its direct children, over a recorded span tree.
func selfTimes(rep *obs.Report) map[string]float64 {
	out := map[string]float64{}
	var walk func(s *obs.SpanReport)
	walk = func(s *obs.SpanReport) {
		self := s.DurationNanos
		for _, c := range s.Children {
			self -= c.DurationNanos
			walk(c)
		}
		out[s.Name] += float64(self) / 1e9
	}
	if rep != nil && rep.Span != nil {
		walk(rep.Span)
	}
	return out
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	RunID    string             `json:"run_id"`
	Workload string             `json:"workload"`
	Host     hostInfo           `json:"host"`
	Spans    *obs.SpanReport    `json:"spans"`
	SelfS    map[string]float64 `json:"self_s"`
	Pipeline *obs.SpanReport    `json:"pipeline_span_tree,omitempty"`
	Replay   *replayReport      `json:"replay,omitempty"`
	Layers   map[string]float64 `json:"layer_metrics"`
	Samples  map[string]int     `json:"samples"`
}

// writeTrace closes the run's root span and writes its span tree, the self
// time per span name, and f's other fields to path.
func writeTrace(rec *obs.Recorder, root *obs.Span, path string, f traceFile) error {
	root.End(nil)
	rep := rec.Snapshot()
	f.Spans = rep.Span
	f.SelfS = selfTimes(rep)
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
