package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tiny runs a workload at a small scale with a one-second serving window.
func tiny(t *testing.T, workload string, trace bool, tweak func(*options)) *outcome {
	t.Helper()
	o := options{root: t.TempDir(), workload: workload, seed: 3, seconds: 1, trace: trace, scale: 0.25, log: &bytes.Buffer{}}
	if tweak != nil {
		tweak(&o)
	}
	out, err := run(o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return out
}

type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.ReplaceAll(workloadNames(), ", ", ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(listed), len(defs))
		}
		for i := range min(len(listed), len(defs)) {
			if listed[i].Name != defs[i].name || listed[i].Unit != defs[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], program has %s [%s]",
					kind, i, listed[i].Name, listed[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2eMetrics)
	check("per_layer", bj.PerLayer, layerMetrics)
}

// TestTinyRunReportsEveryMetric runs every workload untraced and traced at a
// tiny scale: each run must pass its checks and report every metric of its
// mode with its unit.
func TestTinyRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			out := tiny(t, sp.name, trace, nil)
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					sp.name, trace, out.Correct, out.Attempted, out.Failed, out.problems)
			}
			defs := e2eMetrics
			if trace {
				defs = layerMetrics
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", sp.name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", sp.name, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, d.name, m.Value)
				}
			}
			if trace && out.info["replay"].(*replayReport).Differs != "" {
				t.Errorf("%s: replay differs from the pipeline: %+v", sp.name, out.info["replay"])
			}
		}
	}
}

// TestTamperedResponseFailsCheck alters one triple in one recorded response:
// verification must report it and the run must not count as correct.
func TestTamperedResponseFailsCheck(t *testing.T) {
	tampered := false
	out := tiny(t, "bootstrap-crf", false, func(o *options) {
		o.tamper = func(rs []*response) {
			for _, r := range rs {
				if r.ok() && bytes.Contains(r.body, []byte(`"Value": "`)) {
					r.body = bytes.Replace(r.body, []byte(`"Value": "`), []byte(`"Value": "x`), 1)
					tampered = true
					return
				}
			}
		}
	})
	if !tampered {
		t.Fatal("no response with a triple to tamper with")
	}
	if out.Correct {
		t.Fatal("a tampered response passed verification")
	}
	if !strings.Contains(strings.Join(out.problems, "\n"), "triples digest differs") {
		t.Errorf("problems do not name the digest mismatch: %v", out.problems)
	}
}

// TestKilledBackendIsNotASpeedup kills one of the two backends as the first
// closed-loop phase starts: the loss must show up as failed requests or
// router retries, never as a clean run.
func TestKilledBackendIsNotASpeedup(t *testing.T) {
	killed := false
	out := tiny(t, "bootstrap-crf", true, func(o *options) {
		o.onPhase = func(phase string, f *fleetProc) {
			if phase == "single" && !killed {
				f.kill(1)
				killed = true
			}
		}
	})
	retries := out.Metrics["fleet.retries"].Value
	failed := out.Metrics["failed_ratio"].Value
	if retries == 0 && failed == 0 {
		t.Fatalf("a killed backend left no trace: retries=%v failed_ratio=%v", retries, failed)
	}
	t.Logf("retries=%v failed_ratio=%v correct=%v", retries, failed, out.Correct)
}
