package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"choreo/internal/obs"
	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/sweep/backend"
)

// spanLog is an in-memory tracer: spans are encoded into a buffer and
// analysed when the run ends, so the only cost on the traced path is
// the tracer's own.
type spanLog struct {
	buf bytes.Buffer
	obs *obs.Observer
}

func newSpanLog() *spanLog {
	l := &spanLog{}
	l.obs = &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(&l.buf)}
	return l
}

// events flushes and decodes the log.
func (l *spanLog) events() ([]obs.Event, error) {
	if err := l.obs.Trace.Flush(); err != nil {
		return nil, fmt.Errorf("flushing spans: %w", err)
	}
	return obs.DecodeEvents(bytes.NewReader(l.buf.Bytes()))
}

// save writes the raw span log under dir, named for the run.
func (l *spanLog) save(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), l.buf.Bytes(), 0o644)
}

// timedBackend implements backend.Backend around another backend,
// recording a span and a busy-time counter for every Measure and
// Execute. It also names the sweep engine's optimal-reference solve,
// which runs inside a cell with no span of its own: the engine executes
// a cell's own placement, then solves the reference and executes it, so
// the gap between two Execute calls under one cell span is the solve.
type timedBackend struct {
	inner backend.Backend
	o     *obs.Observer

	measureCalls, executeCalls atomic.Int64
	measureNs, executeNs       atomic.Int64

	mu       sync.Mutex
	lastExec map[int64]time.Time // cell span id -> end of its last Execute
}

func newTimedBackend(inner backend.Backend, o *obs.Observer) *timedBackend {
	return &timedBackend{inner: inner, o: o, lastExec: map[int64]time.Time{}}
}

func (b *timedBackend) Name() string     { return b.inner.Name() }
func (b *timedBackend) Executes() bool   { return b.inner.Executes() }
func (b *timedBackend) MeshEpoch() int64 { return b.inner.MeshEpoch() }
func (b *timedBackend) CheckCapacity(ctx context.Context, maxVMs int) error {
	return b.inner.CheckCapacity(ctx, maxVMs)
}

func (b *timedBackend) Measure(ctx context.Context, c backend.Cell) (*place.Environment, error) {
	span := b.o.StartSpan(obs.SpanFromContext(ctx), "backend.measure")
	start := time.Now()
	env, err := b.inner.Measure(ctx, c)
	b.measureNs.Add(time.Since(start).Nanoseconds())
	b.measureCalls.Add(1)
	span.End()
	return env, err
}

func (b *timedBackend) Execute(ctx context.Context, c backend.Cell, app *profile.Application, env *place.Environment, p place.Placement, model place.Model) (backend.Execution, error) {
	parent := obs.SpanFromContext(ctx)
	start := time.Now()
	if id := parent.ID(); id != 0 {
		b.mu.Lock()
		prev, again := b.lastExec[id]
		b.mu.Unlock()
		if again {
			b.o.EmitSpan(parent, "sweep.reference", prev.UnixNano(), start.Sub(prev).Nanoseconds(), nil)
		}
	}
	span := b.o.StartSpan(parent, "backend.execute")
	exec, err := b.inner.Execute(ctx, c, app, env, p, model)
	end := time.Now()
	span.End()
	b.executeNs.Add(end.Sub(start).Nanoseconds())
	b.executeCalls.Add(1)
	if id := parent.ID(); id != 0 {
		b.mu.Lock()
		b.lastExec[id] = end
		b.mu.Unlock()
	}
	return exec, err
}

// byName indexes obs.AggregateByName's per-name span statistics.
func byName(events []obs.Event) map[string]obs.NameStats {
	out := map[string]obs.NameStats{}
	for _, s := range obs.AggregateByName(events) {
		out[s.Name] = s
	}
	return out
}

// total is the summed duration of the spans named name.
func total(st map[string]obs.NameStats, name string) time.Duration {
	return time.Duration(st[name].TotalNs)
}

// coveredNs is how much of n's interval the union of its children's
// intervals covers.
func coveredNs(n *obs.SpanNode) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range n.Children {
		a, b := max(c.WallNs, n.WallNs), min(c.EndNs(), n.EndNs())
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return covered
}

// cellTimes splits the sweep engine's cell time.
type cellTimes struct {
	cell, covered time.Duration
	// refWait is the time cells spent after their own execution waiting
	// for the optimal reference another worker was solving for their
	// cell group: the engine memoizes one reference per group, so the
	// group's other cells block on it with no span of their own.
	refWait time.Duration
}

// sweepCellTimes walks every sweep.cell span. A cell's time is covered
// where its child spans are; a cell whose last child is its own
// backend.execute and that did not solve the reference itself spends its
// remaining tail in the reference wait.
func sweepCellTimes(events []obs.Event) cellTimes {
	var ct cellTimes
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		if n.Name != "sweep.cell" {
			for _, c := range n.Children {
				walk(c)
			}
			return
		}
		ct.cell += time.Duration(n.DurNs)
		ct.covered += time.Duration(coveredNs(n))
		var last *obs.SpanNode
		solved := false
		for _, c := range n.Children {
			solved = solved || c.Name == "sweep.reference"
			if last == nil || c.EndNs() > last.EndNs() {
				last = c
			}
		}
		if !solved && last != nil && last.Name == "backend.execute" && n.EndNs() > last.EndNs() {
			ct.refWait += time.Duration(n.EndNs() - last.EndNs())
		}
	}
	for _, root := range obs.BuildForest(events) {
		walk(root)
	}
	return ct
}

// reorderDepthMax replays a sweep's cell completions and in-order
// reports: depth is the number of cells finished but not yet reported.
func reorderDepthMax(events []obs.Event) int {
	type step struct {
		at    int64
		delta int
	}
	var steps []step
	for _, rec := range obs.FlattenSpans(events) {
		switch rec.Name {
		case "sweep.cell":
			steps = append(steps, step{rec.WallNs + rec.DurNs, +1})
		case "sweep.report":
			steps = append(steps, step{rec.WallNs, -1})
		}
	}
	sort.SliceStable(steps, func(i, j int) bool {
		if steps[i].at != steps[j].at {
			return steps[i].at < steps[j].at
		}
		return steps[i].delta > steps[j].delta
	})
	depth, peak := 0, 0
	for _, s := range steps {
		depth += s.delta
		peak = max(peak, depth)
	}
	return peak
}
