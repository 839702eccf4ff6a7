package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"choreo/internal/api"
	"choreo/internal/core"
	"choreo/internal/obs"
	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/serve"
	"choreo/internal/sweep/backend"
	"choreo/internal/topology"
	"choreo/internal/workload"
)

// serve-mixed workload constants.
const (
	serveVMs = 16
	// fixedRate is the offered Poisson rate of the latency phase: about a
	// third of the max rate this benchmark measured for the service
	// (2,000 to 3,500/s on a shared 2-vCPU Xeon at 2.1 GHz).
	fixedRate = 700.0
	// placeLimit is the place p99 a rate must meet to count as sustained.
	placeLimit = 5 * time.Millisecond
	// epochInterval is how often the service re-measures its mesh.
	epochInterval = time.Second
	// fixedShare is the share of the run spent at the fixed rate; the
	// rate search gets the rest.
	fixedShare = 0.5
	// latencyWindows is how many windows the fixed-rate phase is split
	// into for its latency percentiles: at the fixed rate and share each
	// window holds about a thousand place requests, so its p99 has ten
	// samples beyond it.
	latencyWindows = 8
	// trialSeconds is the length of one rate trial of the search.
	trialSeconds = 1.5
	// maxLadder bounds the search ladder at maxLadder steps of half the
	// fixed rate above it.
	maxLadder = 12
	// appPool is how many distinct applications the requests draw from.
	appPool = 256
	// maxGenLate is how late the generator may release a window's
	// requests (p90) before the window is invalid.
	maxGenLate = 2 * time.Millisecond
	// fixedAttempts bounds how often the fixed-rate phase is run while
	// gathering valid windows.
	fixedAttempts = 3
	// serveSetupReps is how many times the service is booted for the
	// set-up time; the median counts.
	serveSetupReps = 21
	// migrateMinGain is the gain threshold migrate requests carry.
	migrateMinGain = 0.1
)

// placeAlgorithms is the policy mix of place requests: about 70% choreo
// and the three baselines sharing the rest.
var placeAlgorithms = []struct {
	name   string
	weight int
}{{"choreo", 70}, {"random", 10}, {"round-robin", 10}, {"min-machines", 10}}

// request is one generated request with its pre-encoded body.
type request struct {
	migrate   bool
	algorithm string // place requests
	spec      api.AppSpec
	current   []int // migrate requests
	body      []byte
}

func (r *request) path() string {
	if r.migrate {
		return "/v1/migrate"
	}
	return "/v1/place"
}

// corpus is the workload's input: the applications and the request
// stream, all drawn from the seed.
type corpus struct {
	specs []api.AppSpec
	rng   *rand.Rand
	env   *place.Environment // the boot snapshot, for migrate bodies
	// placed remembers recent deterministic place requests, whose
	// responses migrate requests re-submit.
	placed []*request
}

// newCorpus draws the application pool from the seed: mixed patterns,
// 4 to 24 tasks, each within half the snapshot's CPU. Every policy must
// place every application, so a request fails only when the service
// does: an application some policy cannot fit (CPU fragmentation) is
// drawn again.
func newCorpus(seed int64, env *place.Environment) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	budget := 0.0
	for _, c := range env.CPUCap {
		budget += c
	}
	cfg := workload.Config{MinTasks: 4, MaxTasks: 24, MeanBytes: workload.Default().MeanBytes}
	c := &corpus{rng: rng, env: env}
	for len(c.specs) < appPool {
		app, err := workload.GenerateFitting(rng, cfg, budget/2)
		if err != nil {
			return nil, err
		}
		if !placeable(app, env) {
			continue
		}
		i := len(c.specs)
		spec := api.AppSpec{Name: fmt.Sprintf("app-%d", i), CPU: app.CPU}
		for _, tr := range app.TM.Transfers() {
			spec.TransfersMB = append(spec.TransfersMB, [3]float64{float64(tr.From), float64(tr.To), float64(tr.Bytes) / 1e6})
		}
		c.specs = append(c.specs, spec)
	}
	return c, nil
}

// placeable reports whether every place policy fits app on env, the
// random one under several draws.
func placeable(app *profile.Application, env *place.Environment) bool {
	for _, alg := range []core.Algorithm{core.AlgChoreo, core.AlgRoundRobin, core.AlgMinMachines} {
		if _, err := core.PlaceWith(app, env, alg, place.Hose, nil); err != nil {
			return false
		}
	}
	for s := int64(0); s < 32; s++ {
		if _, err := place.Random(app, env, rand.New(rand.NewSource(s))); err != nil {
			return false
		}
	}
	return true
}

// next draws the next request: about 80% place, 20% migrate. A migrate
// re-submits the placement an earlier choreo, round-robin or
// min-machines request received. Those policies are deterministic and
// the simulated mesh measures identically every epoch, so that earlier
// response is known when the request is drawn.
func (c *corpus) next() (*request, error) {
	if len(c.placed) > 0 && c.rng.Intn(5) == 0 {
		prev := c.placed[c.rng.Intn(len(c.placed))]
		if prev.current == nil {
			if err := prev.placeOn(c.env); err != nil {
				return nil, err
			}
		}
		r := &request{migrate: true, spec: prev.spec, current: prev.current}
		body, err := json.Marshal(api.MigrateRequest{V: api.Version, App: r.spec, Current: r.current, MinGain: migrateMinGain})
		r.body = body
		return r, err
	}
	r := &request{spec: c.specs[c.rng.Intn(len(c.specs))]}
	w := c.rng.Intn(100)
	for _, a := range placeAlgorithms {
		if w < a.weight {
			r.algorithm = a.name
			break
		}
		w -= a.weight
	}
	body, err := json.Marshal(api.PlaceRequest{V: api.Version, App: r.spec, Algorithm: r.algorithm})
	if err != nil {
		return nil, err
	}
	r.body = body
	if r.algorithm != "random" {
		if len(c.placed) == 64 {
			c.placed = c.placed[1:]
		}
		c.placed = append(c.placed, r)
	}
	return r, nil
}

// placeOn computes the placement a deterministic place request
// receives on env.
func (r *request) placeOn(env *place.Environment) error {
	app, err := r.spec.ToApplication()
	if err != nil {
		return err
	}
	alg, err := api.ParseAlgorithm(r.algorithm)
	if err != nil {
		return err
	}
	p, err := core.PlaceWith(app, env, alg, place.Hose, nil)
	if err != nil {
		return err
	}
	r.current = p.MachineOf
	return nil
}

// draw returns n requests.
func (c *corpus) draw(n int) ([]*request, error) {
	out := make([]*request, n)
	for i := range out {
		r, err := c.next()
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// service is one booted placement service behind a loopback listener,
// with the epoch loop that re-measures it.
type service struct {
	srv  *serve.Server
	http *http.Server
	url  string

	mu     sync.Mutex
	snaps  map[int64]*serve.Snapshot // every epoch published
	epochs []time.Duration           // Refresh durations after boot

	stop chan struct{}
	done chan struct{}
}

// serveCell is the measured cloud: ec2-2013 with 16 VMs.
func serveCell(seed int64) backend.Cell {
	return backend.Cell{Topology: "ec2-2013", Profile: topology.EC22013(), VMs: serveVMs, Seed: seed}
}

// bootService starts the service and returns once its boot epoch is
// published and its listener answers. The returned duration is the
// set-up time.
func bootService(seed int64, be backend.Backend, o *obs.Observer) (*service, time.Duration, error) {
	start := time.Now()
	srv := serve.New(serve.Config{Backend: be, Cell: serveCell(seed), Model: place.Hose, Seed: seed, Obs: o})
	if err := srv.Refresh(context.Background()); err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s := &service{
		srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(),
		snaps: map[int64]*serve.Snapshot{}, stop: make(chan struct{}), done: make(chan struct{}),
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = s.http.Serve(ln) // returns ErrServerClosed on close
	}()
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := probe.Get(s.url + "/v1/health")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("health: %s", resp.Status)
		}
	}
	setup := time.Since(start)
	if err != nil {
		s.http.Close()
		<-served
		return nil, 0, err
	}
	snap := srv.Snapshot()
	s.snaps[snap.Epoch] = snap
	go s.epochLoop(served)
	return s, setup, nil
}

// epochLoop re-measures every epochInterval until close, recording
// every published snapshot so responses can be checked against the
// epoch they name.
func (s *service) epochLoop(served chan struct{}) {
	defer close(s.done)
	defer func() { <-served }()
	t := time.NewTicker(epochInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			start := time.Now()
			if err := s.srv.Refresh(context.Background()); err != nil {
				continue // the previous snapshot stays live; responses name it
			}
			d := time.Since(start)
			snap := s.srv.Snapshot()
			s.mu.Lock()
			s.snaps[snap.Epoch] = snap
			s.epochs = append(s.epochs, d)
			s.mu.Unlock()
		}
	}
}

// close stops the epoch loop and the listener and waits for both.
func (s *service) close() {
	close(s.stop)
	s.http.Close()
	<-s.done
}

// snapshots returns every snapshot published so far: those the epoch
// loop recorded, plus the current one, which Refresh publishes just
// before the loop records it.
func (s *service) snapshots() map[int64]*serve.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int64]*serve.Snapshot, len(s.snaps)+1)
	for k, v := range s.snaps {
		out[k] = v
	}
	cur := s.srv.Snapshot()
	out[cur.Epoch] = cur
	return out
}

// client posts requests over at most conns keep-alive connections.
type client struct {
	http *http.Client
	url  string
	// spans, when non-nil, records one serve.http span per request.
	spans *obs.Observer
}

func newClient(url string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, url: url}
}

// post sends r and returns the response body, failing on any non-2xx
// status or transport error.
func (c *client) post(r *request) ([]byte, time.Duration, error) {
	span := c.spans.StartSpan(obs.Span{}, "serve.http")
	start := time.Now()
	resp, err := c.http.Post(c.url+r.path(), "application/json", bytes.NewReader(r.body))
	if err != nil {
		span.End()
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	span.End()
	if err != nil {
		return nil, rtt, err
	}
	if resp.StatusCode/100 != 2 {
		return body, rtt, fmt.Errorf("%s: %s: %s", r.path(), resp.Status, bytes.TrimSpace(body))
	}
	return body, rtt, nil
}

func (c *client) close() { c.http.CloseIdleConnections() }

// phase is one open-loop phase's requests and what came back.
type phase struct {
	reqs   []*request
	bodies [][]byte
	rtt    []time.Duration
	load   loadResult
}

// runPhase offers reqs as Poisson arrivals at rate over conns
// connections. keep retains the response bodies for checking.
func runPhase(c *client, reqs []*request, rate float64, conns int, rng *rand.Rand, keep bool) phase {
	ph := phase{reqs: reqs, bodies: make([][]byte, len(reqs)), rtt: make([]time.Duration, len(reqs))}
	gen := openLoop{conns: conns, send: func(_, i int) error {
		body, rtt, err := c.post(reqs[i])
		ph.rtt[i] = rtt
		if keep {
			ph.bodies[i] = body
		}
		return err
	}}
	ph.load = gen.run(poissonSchedule(rng, rate, len(reqs)))
	return ph
}

// latencies splits a phase's due-time latencies by request kind.
func (ph phase) latencies() (placeLat, migrateLat []time.Duration) {
	for i, r := range ph.reqs {
		if r.migrate {
			migrateLat = append(migrateLat, ph.load.Latency[i])
		} else {
			placeLat = append(placeLat, ph.load.Latency[i])
		}
	}
	return placeLat, migrateLat
}

// failures counts the phase's failed requests.
func (ph phase) failures() int {
	n := 0
	for _, err := range ph.load.Err {
		if err != nil {
			n++
		}
	}
	return n
}

// effectiveP99 is the phase's place p99 in ms, or twice the limit if
// any request failed or the backlog grew: a rate at which either
// happens misses the limit however fast the completed requests were.
// Generator lateness needs no rule here, since latency runs from the due
// time and already carries it.
func (ph phase) effectiveP99(conns int) float64 {
	placeLat, _ := ph.latencies()
	p99 := ms(durQuantile(placeLat, 0.99))
	if ph.failures() > 0 || backlogGrew(ph.load.Backlog, conns) {
		p99 = max(p99, 2*ms(placeLimit))
	}
	return p99
}

func runServeMixed(cfg runConfig) (*outcome, error) {
	o := &outcome{metrics: newMetricSet()}
	conns := runtime.NumCPU()
	var be backend.Backend = backend.NewSim()
	var log *spanLog
	var tb *timedBackend
	if cfg.trace {
		log = newSpanLog()
		tb = newTimedBackend(be, log.obs)
		be = tb
	}
	var obsv *obs.Observer
	if log != nil {
		obsv = log.obs
	}
	var svc *service
	var setups []float64
	for i := 0; i < serveSetupReps; i++ {
		if svc != nil {
			svc.close()
		}
		s, setup, err := bootService(cfg.seed, be, obsv)
		if err != nil {
			return nil, fmt.Errorf("booting the service: %w", err)
		}
		svc = s
		setups = append(setups, setup.Seconds())
	}
	defer svc.close()

	boot := svc.srv.Snapshot()
	cor, err := newCorpus(cfg.seed, boot.Env)
	if err != nil {
		return nil, err
	}
	c := newClient(svc.url, conns)
	defer c.close()
	arrivals := rand.New(rand.NewSource(cfg.seed + 1))

	// Warm the connections and the heap off the clock.
	warm, err := cor.draw(200)
	if err != nil {
		return nil, err
	}
	for _, r := range warm {
		if _, _, err := c.post(r); err != nil {
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
	}

	if cfg.trace {
		return o, traceServe(cfg, o, svc, c, cor, arrivals, conns, log, tb)
	}

	fixedSecs := cfg.seconds.Seconds() * fixedShare
	reqs, err := cor.draw(int(fixedRate * fixedSecs))
	if err != nil {
		return nil, err
	}
	attempts, wq, valid, err := fixedPhase(o, c, reqs, conns, arrivals)
	if err != nil {
		return nil, err
	}
	fixed := attempts[len(attempts)-1]
	placeLat, migrateLat := fixed.latencies()

	searchEnd := time.Now().Add(cfg.seconds - time.Duration(fixedSecs*float64(time.Second)))
	maxRate, trials, err := searchRate(c, cor, arrivals, conns, wq.p99, searchEnd, o)
	if err != nil {
		return nil, err
	}

	for _, ph := range attempts {
		checkPhase(o, svc.snapshots(), ph)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.note("place_samples", len(placeLat))
	o.note("migrate_samples", len(migrateLat))
	o.note("migrate_p50_ms", ms(durQuantile(migrateLat, 0.5)))
	o.note("migrate_p99_ms", ms(durQuantile(migrateLat, 0.99)))
	o.note("fixed_rate_per_s", fixedRate)
	o.note("fixed_attempts", len(attempts))
	o.note("fixed_valid_windows", valid)
	o.note("gen_late_ms_p99", ms(durQuantile(fixed.load.Late, 0.99)))
	o.note("gen_backlog_max", slices.Max(fixed.load.Backlog))
	o.note("rate_trials", trials)
	o.metrics.add("setup_s", median(setups), "s")
	o.metrics.add("throughput_per_s", maxRate, "1/s")
	o.note("place_p99_ms", wq.p99)
	o.metrics.add("place_p50_ms", wq.p50, "ms")
	o.metrics.add("place_p90_ms", wq.p90, "ms")
	o.metrics.add("max_rss_mb", rss, "MB")
	return o, nil
}

// fixedPhase offers reqs at the fixed rate until it has gathered place
// latencies from at least half of latencyWindows valid windows, running
// the phase again when a run left too few, up to fixedAttempts runs. A
// window is valid when its generator released nine tenths of its
// requests within maxGenLate of their due time; a later one offered no
// fixed rate. It returns every run, so every response is checked, and
// the medians over all valid windows of each window's place latency
// quantiles in ms.
func fixedPhase(o *outcome, c *client, reqs []*request, conns int, arrivals *rand.Rand) (runs []phase, q windowQuantiles, valid int, err error) {
	var windows []windowQuantiles
	for len(runs) < fixedAttempts && 2*len(windows) < latencyWindows {
		ph := runPhase(c, reqs, fixedRate, conns, arrivals, true)
		o.attempted += int64(len(reqs))
		o.failed += int64(ph.failures())
		runs = append(runs, ph)
		windows = append(windows, ph.validWindows(latencyWindows)...)
	}
	if len(windows) == 0 {
		return nil, q, 0, fmt.Errorf("fixed-rate phase, %d runs: %w in every window", len(runs), errGeneratorBehind)
	}
	var p50, p90, p99 []float64
	for _, w := range windows {
		p50, p90, p99 = append(p50, w.p50), append(p90, w.p90), append(p99, w.p99)
	}
	return runs, windowQuantiles{median(p50), median(p90), median(p99)}, len(windows), nil
}

// windowQuantiles are place latency quantiles in ms.
type windowQuantiles struct{ p50, p90, p99 float64 }

// validWindows splits the phase, in request order, into n equal windows
// and returns each valid window's place latency quantiles. Taking
// medians over windows means a burst of interference from outside the
// process moves one window's figures, not the result.
func (ph phase) validWindows(n int) []windowQuantiles {
	var out []windowQuantiles
	for w := 0; w < n; w++ {
		lo, hi := w*len(ph.reqs)/n, (w+1)*len(ph.reqs)/n
		if ph.load.window(lo, hi).behind(maxGenLate) != nil {
			continue
		}
		var lat []time.Duration
		for i := lo; i < hi; i++ {
			if !ph.reqs[i].migrate {
				lat = append(lat, ph.load.Latency[i])
			}
		}
		out = append(out, windowQuantiles{ms(durQuantile(lat, 0.5)), ms(durQuantile(lat, 0.9)), ms(durQuantile(lat, 0.99))})
	}
	return out
}

// searchRate estimates the highest offered rate that meets the limit.
// Trials climb a ladder of rates in steps of half the fixed rate, from
// one step above it, each held for trialSeconds, until the ladder's top
// or the deadline. A step scoring below 1 is tried once more and keeps
// the better score. Steps not reached score 0. On two shared CPUs one trial's p99
// moves by tens of percent with the host, so "the last rate that
// passed" jumps between runs. Each step instead contributes its score:
// 1 when place p99 is at most half the limit, 0 from one and a half
// times the limit, linear between, so a step at the limit counts half.
// The fixed-rate phase scores the two steps below it. The estimate is
// the step times the summed scores, which is the crossing rate when p99
// rises with rate and moves by at most one step for any one noisy trial.
func searchRate(c *client, cor *corpus, arrivals *rand.Rand, conns int, fixedP99 float64, deadline time.Time, o *outcome) (float64, []map[string]any, error) {
	step := fixedRate / 2
	score := 2 * rateScore(fixedP99)
	var trials []map[string]any
	// One request list serves every trial, so the trials differ in rate
	// only and memory stays flat.
	pool, err := cor.draw(int((fixedRate + maxLadder*step) * trialSeconds))
	if err != nil {
		return 0, nil, err
	}
	trial := func(rate float64) float64 {
		reqs := pool[:int(rate*trialSeconds)]
		ph := runPhase(c, reqs, rate, conns, arrivals, false)
		o.attempted += int64(len(reqs))
		o.failed += int64(ph.failures())
		p99 := ph.effectiveP99(conns)
		s := rateScore(p99)
		trials = append(trials, map[string]any{"rate": rate, "place_p99_ms": p99, "score": s})
		return s
	}
	for k := 1; k <= maxLadder && time.Now().Before(deadline); k++ {
		rate := fixedRate + float64(k)*step
		s := trial(rate)
		if s < 1 && time.Now().Before(deadline) {
			// A burst of host interference fails a trial below the
			// service's capacity; a rate above it fails twice.
			s = max(s, trial(rate))
		}
		score += s
	}
	return step * score, trials, nil
}

// rateScore scores one rate by its place p99 in ms: 1 up to half the
// limit, 0 from one and a half times it, linear between.
func rateScore(p99 float64) float64 {
	limit := ms(placeLimit)
	return min(1, max(0, (1.5*limit-p99)/limit))
}
