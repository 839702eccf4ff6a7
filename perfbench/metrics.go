package main

import (
	"fmt"
	"sort"
	"time"
)

// endToEnd lists the untraced metrics every workload reports, with units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"place_p50_ms", "ms"},
	{"place_p90_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer lists the traced run's metrics, layer by layer. A workload
// that never enters a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"sweep.cell_s", "s"},
	{"sweep.cell_self_s", "s"},
	{"sweep.report_s", "s"},
	{"sweep.reference_s", "s"},
	{"sweep.reference_wait_s", "s"},
	{"sweep.worker_utilization", "ratio"},
	{"sweep.reorder_depth_max", "count"},
	{"envcache.hits", "count"},
	{"envcache.misses", "count"},
	{"envcache.hit_ratio", "ratio"},
	{"envcache.measurement_misses", "count"},
	{"backend.measure_calls", "count"},
	{"backend.measure_s", "s"},
	{"backend.execute_calls", "count"},
	{"backend.execute_s", "s"},
	{"place.policy_s", "s"},
	{"place.optimal_calls", "count"},
	{"place.optimal_s", "s"},
	{"place.optimal_budget_hit_ratio", "ratio"},
	{"place.greedy_us_p50", "us"},
	{"place.completion_us_p50", "us"},
	{"topology.build_s", "s"},
	{"core.measure_s", "s"},
	{"core.execute_s", "s"},
	{"core.sequence_place_s", "s"},
	{"core.sequence_run_s", "s"},
	{"core.migrations", "count"},
	{"serve.http_us_p50", "us"},
	{"serve.http_us_p99", "us"},
	{"serve.handler_us_p50", "us"},
	{"serve.handler_us_p99", "us"},
	{"serve.epochs", "count"},
	{"serve.epoch_ms_p50", "ms"},
	{"serve.place_p99_ms", "ms"},
	{"serve.migrate_p50_ms", "ms"},
	{"serve.migrate_p99_ms", "ms"},
	{"serve.rng_us_p50", "us"},
	{"api.decode_us_p50", "us"},
	{"api.encode_us_p50", "us"},
	{"gen.late_ms_p99", "ms"},
	{"gen.late_ms_max", "ms"},
	{"gen.backlog_max", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"obs.spans", "count"},
	{"trace.coverage_ratio", "ratio"},
}

type metricDef struct{ name, unit string }

// complete orders m as defs lists it, filling the per-layer metrics a
// workload does not exercise with 0, and reports any metric that is
// missing, extra or in the wrong unit.
func complete(m *metricSet, defs []metricDef, zeroFill bool) error {
	out := newMetricSet()
	for _, d := range defs {
		v, ok := m.m[d.name]
		switch {
		case !ok && zeroFill:
			v = metric{Value: 0, Unit: d.unit}
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.name)
		case v.Unit != d.unit:
			return fmt.Errorf("metric %s in %s, want %s", d.name, v.Unit, d.unit)
		}
		out.add(d.name, v.Value, v.Unit)
	}
	if len(out.m) != len(m.m) {
		for _, n := range m.names {
			if _, ok := out.m[n]; !ok {
				return fmt.Errorf("metric %s is not declared", n)
			}
		}
	}
	*m = *out
	return nil
}

// median of xs (mean of the middle two for even counts), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
