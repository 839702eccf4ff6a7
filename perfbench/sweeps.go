package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"choreo/internal/core"
	"choreo/internal/netsim"
	"choreo/internal/obs"
	"choreo/internal/place"
	"choreo/internal/sweep"
	"choreo/internal/sweep/backend"
	"choreo/internal/sweep/envcache"
	"choreo/internal/sweep/sequence"
	"choreo/internal/topology"
	"choreo/internal/workload"
)

// Batches. A batch is one full run of the workload's grid at a few grid
// seeds; each batch of a run takes the next grid seeds, so a run
// averages over many clouds and applications while the benchmark seed
// still fixes every one of them.
const (
	snapshotGridSeeds = 4 // 384 scenarios over 128 unique cells
	sequenceGridSeeds = 8 // 192 scenarios over 32 unique cells
	// checkedGroups is how many cell groups the warm-up batch recomputes
	// through the public calls; every timed batch recomputes one more.
	checkedGroups = 6
	// setupReps is how many times set-up is repeated; the median counts.
	setupReps = 51
)

// gridSeeds derives batch b's n grid seeds from the benchmark seed.
func gridSeeds(seed int64, b, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*1_000_000 + int64(b*n+i) + 1
	}
	return out
}

// snapshotGrid is the §6.2 snapshot grid of sweep.Default(): 4
// topologies × 2 workloads × 3 algorithms × 2 VM counts × 2 mean sizes,
// with the exact-optimum reference on.
func snapshotGrid(seed int64, b int) sweep.Grid {
	g := sweep.Default()
	g.Seeds = gridSeeds(seed, b, snapshotGridSeeds)
	return g
}

// sequenceGrid is the §6.3 in-sequence grid of sweep.DefaultSequence()
// at 10 VMs and 16 applications per sequence.
func sequenceGrid(seed int64, b int) sweep.Grid {
	g := sweep.DefaultSequence()
	g.VMCounts = []int{10}
	g.SeqApps = []int{16}
	g.Seeds = gridSeeds(seed, b, sequenceGridSeeds)
	return g
}

// gridFunc builds batch b's grid for a benchmark seed.
type gridFunc func(seed int64, b int) sweep.Grid

func runSnapshotSweep(cfg runConfig) (*outcome, error) {
	return runSweep(cfg, "snapshot-sweep", snapshotGrid)
}

func runSequenceSweep(cfg runConfig) (*outcome, error) {
	return runSweep(cfg, "sequence-sweep", sequenceGrid)
}

// sweepWorkers is the pool size: one worker per CPU.
func sweepWorkers() int { return runtime.NumCPU() }

// batch is one finished sweep run.
type batch struct {
	g       sweep.Grid
	scs     []sweep.Scenario
	results []sweep.Result
	sum     *sweep.Summary
	wall    time.Duration
}

// runBatch runs the grid once, collecting every emitted result. opts.Obs
// and g.Backend select a traced run.
func runBatch(g sweep.Grid, scs []sweep.Scenario, opts sweep.RunOptions) (batch, error) {
	results := make([]sweep.Result, 0, len(scs))
	opts.Workers = sweepWorkers()
	opts.Emit = func(r sweep.Result) error {
		results = append(results, r)
		return nil
	}
	start := time.Now()
	sum, err := sweep.RunStream(g, opts)
	wall := time.Since(start)
	return batch{g: g, scs: scs, results: results, sum: sum, wall: wall}, err
}

// expand builds the grid and does the engine's pre-worker work: the
// expansion and every scenario's cache key. This is a sweep's set-up.
func expand(grid gridFunc, seed int64, b int) (sweep.Grid, []sweep.Scenario, error) {
	g := grid(seed, b)
	scs, err := g.Expand()
	if err != nil {
		return g, nil, err
	}
	for _, sc := range scs {
		_ = g.CellKey(sc)
	}
	return g, scs, nil
}

// expandAndRun expands batch b's grid and runs it.
func expandAndRun(grid gridFunc, seed int64, b int, opts sweep.RunOptions) (batch, error) {
	g, scs, err := expand(grid, seed, b)
	if err != nil {
		return batch{}, err
	}
	return runBatch(g, scs, opts)
}

// checkBatch verifies a batch's stream against its expansion, counting
// wrong scenarios as failed, and recomputes the given cell groups. It
// returns the stream's digest.
func checkBatch(o *outcome, b batch, groups int) string {
	o.attempted += int64(len(b.scs))
	digest, bad := checkStream(b.scs, b.results)
	if bad > 0 {
		o.failed += int64(bad)
		o.fail("%d of %d scenarios missing, duplicated or out of expansion order", bad, len(b.scs))
		return digest
	}
	rep := newReplayer(b.g, nil)
	for _, grp := range sampleGroups(b.g, b.scs, groups) {
		rep.check(o, b.scs, b.results, grp)
	}
	return digest
}

func runSweep(cfg runConfig, name string, grid gridFunc) (*outcome, error) {
	o := &outcome{metrics: newMetricSet()}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if _, _, err := expand(grid, cfg.seed, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// The warm-up batch is off the clock: it lets the heap grow to its
	// working size, and its stream is the one whose digest is recorded
	// for the shipped seeds.
	warm, err := expandAndRun(grid, cfg.seed, 0, sweep.RunOptions{})
	if err != nil {
		return nil, fmt.Errorf("warm-up batch: %w", err)
	}
	digest := checkBatch(o, warm, checkedGroups)
	if want, ok := recordedDigests[name][cfg.seed]; ok && digest != want {
		o.fail("result stream sha256 %s differs from the recorded %s for seed %d", digest, want, cfg.seed)
	}
	o.note("scenarios_per_batch", len(warm.scs))
	o.note("stream_sha256", digest)

	if cfg.trace {
		return o, traceSweep(cfg, name, o, grid, warm)
	}

	// Each batch is a different grid, so its rate and latencies vary
	// with its clouds and applications as well as with the host; the
	// medians over batches are steady where a pooled figure is not.
	var rates, p50s, p90s []float64
	deadline := time.Now().Add(cfg.seconds)
	for b := 1; time.Now().Before(deadline); b++ {
		bt, err := expandAndRun(grid, cfg.seed, b, sweep.RunOptions{})
		if err != nil {
			return nil, err
		}
		lat := make([]time.Duration, len(bt.results))
		for i, r := range bt.results {
			lat[i] = r.PlaceLatency
		}
		rates = append(rates, float64(len(bt.results))/bt.wall.Seconds())
		p50s = append(p50s, ms(durQuantile(lat, 0.50)))
		p90s = append(p90s, ms(durQuantile(lat, 0.90)))
		checkBatch(o, bt, 1)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.note("timed_batches", len(rates))
	o.metrics.add("setup_s", median(setups), "s")
	o.metrics.add("throughput_per_s", median(rates), "1/s")
	o.metrics.add("place_p50_ms", median(p50s), "ms")
	o.metrics.add("place_p90_ms", median(p90s), "ms")
	o.metrics.add("max_rss_mb", rss, "MB")
	return o, nil
}

// checkStream verifies that the stream holds every expanded scenario
// exactly once, in expansion order, and returns its SHA-256 (each
// result's JSON line) with the number of scenarios that are wrong.
func checkStream(scs []sweep.Scenario, results []sweep.Result) (string, int) {
	h := sha256.New()
	bad := 0
	for i, r := range results {
		line, err := json.Marshal(r)
		if err != nil {
			bad++
			continue
		}
		h.Write(line)
		h.Write([]byte{'\n'})
		if i >= len(scs) || !sameScenario(scs[i], r) {
			bad++
		}
	}
	if len(results) < len(scs) {
		bad += len(scs) - len(results)
	}
	return hex.EncodeToString(h.Sum(nil)), bad
}

// sameScenario reports whether r carries sc's grid coordinates.
func sameScenario(sc sweep.Scenario, r sweep.Result) bool {
	return r.Topology == sc.Topology.Name && r.Workload == sc.Workload.Name &&
		r.Algorithm == sc.Algorithm.Name && r.Seed == sc.Seed && r.VMs == sc.VMs &&
		r.MeanBytes == int64(sc.MeanBytes) && r.InterarrivalNs == int64(sc.Interarrival) &&
		r.SeqApps == sc.SeqApps && r.ReevalNs == int64(sc.Reeval)
}

// cellGroups partitions the expansion into cell groups: the scenarios
// sharing one cache key, which differ only in algorithm (and, for
// sequence cells, re-evaluation period). Groups keep first-seen order.
func cellGroups(g sweep.Grid, scs []sweep.Scenario) [][]int {
	index := map[envcache.Key]int{}
	var groups [][]int
	for i, sc := range scs {
		k := g.CellKey(sc)
		gi, ok := index[k]
		if !ok {
			gi = len(groups)
			index[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// sampleGroups picks n cell groups at an even stride: a deterministic
// sample that spans every topology.
func sampleGroups(g sweep.Grid, scs []sweep.Scenario, n int) [][]int {
	groups := cellGroups(g, scs)
	if n >= len(groups) {
		return groups
	}
	out := make([][]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, groups[i*len(groups)/n])
	}
	return out
}

// replayer recomputes cell groups through the public layer calls —
// topology.NewProvider, core.New, MeasureEnvironment, core.PlaceWith or
// place.Optimal, and Execute — outside the sweep engine, recording a
// span around each call when given an observer.
type replayer struct {
	g sweep.Grid
	o *obs.Observer

	optimalCalls, budgetHits int
}

func newReplayer(g sweep.Grid, o *obs.Observer) *replayer {
	return &replayer{g: g, o: o}
}

// timed runs f inside a span named name.
func (rp *replayer) timed(parent obs.Span, name string, f func() error) error {
	span := rp.o.StartSpan(parent, name)
	err := f()
	span.End()
	return err
}

// orchestrator rebuilds a cell's simulated cloud from its seed exactly
// as the sweep engine and the sim backend do: provider from the seed,
// orchestrator rng from seed+1.
func (rp *replayer) orchestrator(parent obs.Span, sc sweep.Scenario, seed int64, model place.Model) (*core.Choreo, error) {
	var prov *topology.Provider
	var vms []topology.VM
	err := rp.timed(parent, "topology.build", func() error {
		var err error
		if prov, err = topology.NewProvider(sc.Topology.Profile, seed); err != nil {
			return err
		}
		vms, err = prov.AllocateVMs(sc.VMs)
		return err
	})
	if err != nil {
		return nil, err
	}
	return core.New(netsim.New(prov), vms, rand.New(rand.NewSource(seed+1)), core.Options{Model: model})
}

// workloadConfig is the generator configuration the engine uses for sc.
func (rp *replayer) workloadConfig(sc sweep.Scenario) workload.Config {
	return workload.Config{
		MinTasks:  rp.g.MinTasks,
		MaxTasks:  rp.g.MaxTasks,
		MeanBytes: sc.MeanBytes,
		Patterns:  sc.Workload.Patterns,
	}
}

// check recomputes one cell group, counting its scenarios as failed
// when they differ from the emitted results.
func (rp *replayer) check(o *outcome, scs []sweep.Scenario, results []sweep.Result, group []int) {
	if err := rp.recompute(scs, results, group); err != nil {
		o.failed += int64(len(group))
		o.fail("recomputing scenario %d: %v", group[0], err)
	}
}

// recompute replays one cell group and compares every scenario of it
// with the emitted results; completion and optimal seconds (total
// running time and migrations for sequence cells) must be bit-identical.
func (rp *replayer) recompute(scs []sweep.Scenario, results []sweep.Result, group []int) error {
	if rp.g.Mode == sweep.Sequence {
		return rp.checkSequence(scs, results, group)
	}
	return rp.checkSnapshot(scs, results, group)
}

func (rp *replayer) checkSnapshot(scs []sweep.Scenario, results []sweep.Result, group []int) error {
	sc := scs[group[0]]
	seed := rp.g.CellKey(sc).CloudSeed
	root := rp.o.StartSpan(obs.Span{}, "replay.cell")
	defer root.End()
	app, err := workload.Generate(rand.New(rand.NewSource(seed+2)), rp.workloadConfig(sc))
	if err != nil {
		return err
	}
	orch, err := rp.orchestrator(root, sc, seed, 0)
	if err != nil {
		return err
	}
	var env *place.Environment
	if err := rp.timed(root, "core.measure", func() error {
		env, err = orch.MeasureEnvironment()
		return err
	}); err != nil {
		return err
	}
	execute := func(p place.Placement) (float64, error) {
		orch, err := rp.orchestrator(root, sc, seed, 0)
		if err != nil {
			return 0, err
		}
		var d time.Duration
		err = rp.timed(root, "core.execute", func() error {
			d, err = orch.Execute(app, p)
			return err
		})
		return d.Seconds(), err
	}

	var optimal *float64
	if rp.g.OptimalMaxTasks > 0 && app.Tasks() <= rp.g.OptimalMaxTasks {
		var p place.Placement
		rp.optimalCalls++
		err := rp.timed(root, "place.optimal", func() error {
			p, err = place.Optimal(app, env, rp.g.Model, rp.g.OptimalMaxNodes)
			return err
		})
		switch {
		case errors.Is(err, place.ErrSearchBudget):
			rp.budgetHits++
		case err != nil:
			return err
		default:
			v, err := execute(p)
			if err != nil {
				return err
			}
			optimal = &v
		}
	}
	for _, i := range group {
		sc := scs[i]
		var p place.Placement
		name := "place.policy"
		if sc.Algorithm.Core == core.AlgChoreo {
			name = "place.greedy"
		}
		if err := rp.timed(root, name, func() error {
			p, err = core.PlaceWith(app, env, sc.Algorithm.Core, rp.g.Model, rand.New(rand.NewSource(seed+1)))
			return err
		}); err != nil {
			return err
		}
		got, err := execute(p)
		if err != nil {
			return err
		}
		r := results[i]
		if got != r.CompletionSeconds {
			return fmt.Errorf("%s/%s/%s: completion %v s, recomputed %v s", r.Topology, r.Workload, r.Algorithm, r.CompletionSeconds, got)
		}
		if !sameOptional(optimal, r.OptimalSeconds) {
			return fmt.Errorf("%s/%s/%s: optimal %v s, recomputed %v s", r.Topology, r.Workload, r.Algorithm, deref(r.OptimalSeconds), deref(optimal))
		}
	}
	return nil
}

func (rp *replayer) checkSequence(scs []sweep.Scenario, results []sweep.Result, group []int) error {
	sc := scs[group[0]]
	seed := rp.g.CellKey(sc).CloudSeed
	root := rp.o.StartSpan(obs.Span{}, "replay.cell")
	defer root.End()
	params := sequence.Params{Apps: sc.SeqApps, Interarrival: sc.Interarrival}
	seq, err := sequence.Generate(rand.New(rand.NewSource(seed+2)), rp.workloadConfig(sc), params)
	if err != nil {
		return err
	}
	orch, err := rp.orchestrator(root, sc, seed, rp.g.Model)
	if err != nil {
		return err
	}
	var env *place.Environment
	if err := rp.timed(root, "core.measure", func() error {
		env, err = orch.MeasureEnvironment()
		return err
	}); err != nil {
		return err
	}
	for _, i := range group {
		sc := scs[i]
		exec, err := rp.orchestrator(root, sc, seed, rp.g.Model)
		if err != nil {
			return err
		}
		var res core.SequenceResult
		start := time.Now()
		err = rp.timed(root, "core.sequence_run", func() error {
			res, err = exec.RunSequence(seq, sc.Algorithm.Core, core.SequenceOptions{
				Remeasure:           true,
				ReevaluateEvery:     sc.Reeval,
				MigrationGain:       rp.g.MigrationGain,
				MaxMigrationsPerApp: rp.g.MaxMigrations,
				StaticEnv:           env.Clone(),
			})
			return err
		})
		if err != nil {
			return err
		}
		rp.emitSequenceLatencies(root, start, res)
		r := results[i]
		if got := res.TotalRunning.Seconds(); got != r.CompletionSeconds || res.Migrations != r.Migrations {
			return fmt.Errorf("%s/%s/%s reeval %v: %v s and %d migrations, recomputed %v s and %d",
				r.Topology, r.Workload, r.Algorithm, sc.Reeval, r.CompletionSeconds, r.Migrations, got, res.Migrations)
		}
	}
	return nil
}

// emitSequenceLatencies records the sequence run's own per-arrival
// measure and place timings as spans, laid end to end from the run's
// start: they happen inside RunSequence, where the benchmark has no
// hook, so only their durations are real.
func (rp *replayer) emitSequenceLatencies(root obs.Span, start time.Time, res core.SequenceResult) {
	if rp.o == nil {
		return
	}
	at := start.UnixNano()
	for i := range res.MeasureLatency {
		rp.o.EmitSpan(root, "core.remeasure", at, res.MeasureLatency[i].Nanoseconds(), nil)
		at += res.MeasureLatency[i].Nanoseconds()
		rp.o.EmitSpan(root, "place.sequence", at, res.PlaceLatency[i].Nanoseconds(), nil)
		at += res.PlaceLatency[i].Nanoseconds()
	}
}

func sameOptional(a, b *float64) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return *a == *b
}

func deref(p *float64) any {
	if p == nil {
		return "none"
	}
	return *p
}

// traceSweep is the traced run: untraced and traced runs of each
// batch's grid alternate so their wall times give the tracing overhead;
// the traced ones record the engine's spans (RunOptions.Obs) and the
// timing backend's; and a replay of every cell group of the warm-up
// grid times the layer calls the engine makes without a span of its own.
func traceSweep(cfg runConfig, name string, o *outcome, grid gridFunc, warm batch) error {
	var plain, traced, overhead []float64
	var cellNs, selfNs, reportNs, refNs, refWaitNs, policyNs, seqPlaceNs, executeNs float64
	var measureCalls, executeCalls, spans int64
	var measureNs, execNs float64
	var util []float64
	var depth int
	var covered, busy float64
	var hits, misses, measMisses int64
	var allocMB, gcCycles, gcPauseMS float64
	var last *spanLog

	deadline := time.Now().Add(cfg.seconds * 7 / 10)
	for b := 1; len(traced) == 0 || time.Now().Before(deadline); b++ {
		g, scs, err := expand(grid, cfg.seed, b)
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bt, err := runBatch(g, scs, sweep.RunOptions{})
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		checkBatch(o, bt, 0)
		plain = append(plain, bt.wall.Seconds())
		allocMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		gcCycles += float64(after.NumGC - before.NumGC)
		gcPauseMS += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6

		log := newSpanLog()
		tb := newTimedBackend(backend.NewSim(), log.obs)
		tg := g
		tg.Backend = tb
		bt, err = runBatch(tg, scs, sweep.RunOptions{Obs: log.obs})
		if err != nil {
			return err
		}
		checkBatch(o, bt, 0)
		traced = append(traced, bt.wall.Seconds())
		overhead = append(overhead, traced[len(traced)-1]/plain[len(plain)-1]-1)
		events, err := log.events()
		if err != nil {
			return err
		}
		st := byName(events)
		ct := sweepCellTimes(events)
		phaseExec := log.obs.Metrics.HistogramVec("choreo_sweep_phase_seconds", "", obs.DurationBuckets(), "phase").With("execute").Sum() * 1e9
		spans += int64(len(events) / 2) // a start and an end event per span
		cellNs += float64(ct.cell)
		selfNs += float64(ct.cell - ct.covered)
		reportNs += float64(total(st, "sweep.report"))
		refNs += float64(total(st, "sweep.reference"))
		refWaitNs += float64(ct.refWait)
		executeNs += phaseExec
		// Attributed time: what child spans cover, the reference wait,
		// and the in-order reports. A sequence cell plays its arrival
		// sequence with no span; the engine's execute phase timer, read
		// from the run's registry, attributes it.
		covered += float64(ct.covered+ct.refWait) + float64(total(st, "sweep.report"))
		if g.Mode == sweep.Sequence {
			covered += phaseExec
		}
		busy += float64(ct.cell) + float64(total(st, "sweep.report"))
		depth = max(depth, reorderDepthMax(events))
		util = append(util, log.obs.Metrics.Gauge("choreo_sweep_worker_utilization", "").Value())
		measureCalls += tb.measureCalls.Load()
		executeCalls += tb.executeCalls.Load()
		measureNs += float64(tb.measureNs.Load())
		execNs += float64(tb.executeNs.Load())
		hits += bt.sum.Cache.Hits
		misses += bt.sum.Cache.Misses
		measMisses += bt.sum.Cache.MeasurementMisses
		for _, r := range bt.results {
			if g.Mode == sweep.Sequence {
				seqPlaceNs += float64(r.PlaceLatency)
			} else {
				policyNs += float64(r.PlaceLatency)
			}
		}
		last = log
	}
	n := float64(len(traced))

	// Replay every cell group of the warm-up grid once, traced.
	rlog := newSpanLog()
	rep := newReplayer(warm.g, rlog.obs)
	for _, grp := range cellGroups(warm.g, warm.scs) {
		rep.check(o, warm.scs, warm.results, grp)
	}
	migrations := 0
	for _, r := range warm.results {
		migrations += r.Migrations
	}
	revents, err := rlog.events()
	if err != nil {
		return err
	}
	rst := byName(revents)
	policy := policyNs / n / 1e9
	if warm.g.Mode == sweep.Sequence {
		// Sequence results carry measure and place time summed; the
		// replay's own per-arrival timings separate them.
		policy = total(rst, "place.sequence").Seconds()
	}

	if err := last.save(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, cfg.seed)); err != nil {
		return err
	}
	if err := rlog.save(cfg.outDir, fmt.Sprintf("spans-%s-seed%d-replay.jsonl", name, cfg.seed)); err != nil {
		return err
	}

	m := o.metrics
	// Engine figures are per batch (one run of the grid): totals over
	// the traced batches divided by their number.
	m.add("sweep.cell_s", cellNs/n/1e9, "s")
	m.add("sweep.cell_self_s", selfNs/n/1e9, "s")
	m.add("sweep.report_s", reportNs/n/1e9, "s")
	m.add("sweep.reference_s", refNs/n/1e9, "s")
	m.add("sweep.reference_wait_s", refWaitNs/n/1e9, "s")
	m.add("sweep.worker_utilization", median(util), "ratio")
	m.add("sweep.reorder_depth_max", float64(depth), "count")
	m.add("envcache.hits", float64(hits)/n, "count")
	m.add("envcache.misses", float64(misses)/n, "count")
	m.add("envcache.hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	m.add("envcache.measurement_misses", float64(measMisses)/n, "count")
	m.add("backend.measure_calls", float64(measureCalls)/n, "count")
	m.add("backend.measure_s", measureNs/n/1e9, "s")
	m.add("backend.execute_calls", float64(executeCalls)/n, "count")
	m.add("backend.execute_s", execNs/n/1e9, "s")
	m.add("place.policy_s", policy, "s")
	// Replay figures are one pass over every cell group of the grid,
	// which is what one batch computes.
	m.add("place.optimal_calls", float64(rep.optimalCalls), "count")
	m.add("place.optimal_s", total(rst, "place.optimal").Seconds(), "s")
	m.add("place.optimal_budget_hit_ratio", ratio(float64(rep.budgetHits), float64(rep.optimalCalls)), "ratio")
	m.add("place.greedy_us_p50", float64(rst["place.greedy"].P50Ns)/1e3, "us")
	m.add("topology.build_s", total(rst, "topology.build").Seconds(), "s")
	measure := total(rst, "core.measure") + total(rst, "core.remeasure")
	m.add("core.measure_s", measure.Seconds(), "s")
	m.add("core.execute_s", executeNs/n/1e9, "s")
	m.add("core.sequence_place_s", seqPlaceNs/n/1e9, "s")
	m.add("core.sequence_run_s", total(rst, "core.sequence_run").Seconds(), "s")
	m.add("core.migrations", float64(migrations), "count")
	m.add("runtime.alloc_mb", allocMB/float64(len(plain)), "MB")
	m.add("runtime.gc_cycles", gcCycles/float64(len(plain)), "count")
	m.add("runtime.gc_pause_ms", gcPauseMS/float64(len(plain)), "ms")
	m.add("obs.trace_overhead_ratio", median(overhead), "ratio")
	m.add("obs.spans", float64(spans)/n, "count")
	m.add("trace.coverage_ratio", ratio(covered, busy), "ratio")
	o.note("traced_batches", len(traced))
	return nil
}
