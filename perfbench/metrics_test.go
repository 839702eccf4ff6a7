package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json, the workload
// table and the metric tables in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var doc struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not run by the harness", w.Name)
		}
	}
	for _, tc := range []struct {
		kind string
		json []named
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", tc.kind, len(tc.json), len(tc.defs))
			continue
		}
		for i, m := range tc.json {
			if m.Name != tc.defs[i].name || m.Unit != tc.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s in %s, harness %s in %s", tc.kind, i, m.Name, m.Unit, tc.defs[i].name, tc.defs[i].unit)
			}
		}
	}
}

func TestCompleteRejectsMissingAndExtra(t *testing.T) {
	m := newMetricSet()
	m.add("setup_s", 1, "s")
	if err := complete(m, endToEnd, false); err == nil {
		t.Error("missing end-to-end metrics accepted")
	}
	m = newMetricSet()
	m.add("no_such_metric", 1, "s")
	if err := complete(m, perLayer, true); err == nil {
		t.Error("undeclared metric accepted")
	}
	m = newMetricSet()
	m.add("sweep.cell_s", 2, "s")
	if err := complete(m, perLayer, true); err != nil {
		t.Fatal(err)
	}
	if len(m.names) != len(perLayer) || m.m["sweep.cell_s"].Value != 2 || m.m["serve.epochs"].Value != 0 {
		t.Errorf("per-layer metrics not zero-filled in order: %v", m.names)
	}
}

func TestRateScore(t *testing.T) {
	for _, tc := range []struct{ p99, want float64 }{{1, 1}, {2.5, 1}, {5, 0.5}, {7.5, 0}, {40, 0}} {
		if got := rateScore(tc.p99); got != tc.want {
			t.Errorf("rateScore(%v ms) = %v, want %v", tc.p99, got, tc.want)
		}
	}
}
