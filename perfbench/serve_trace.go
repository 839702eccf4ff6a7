package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"choreo/internal/api"
	"choreo/internal/core"
	"choreo/internal/obs"
	"choreo/internal/place"
	"choreo/internal/profile"
)

const (
	// burstRequests is the size of one closed-loop burst of the overhead
	// measurement.
	burstRequests = 1000
	// replaySample caps the requests replayed in process.
	replaySample = 2000
)

// burst sends reqs back to back over conns connections (every request
// due at once) and returns the wall time.
func burst(c *client, reqs []*request, conns int) (time.Duration, int) {
	gen := openLoop{conns: conns, sleep: func(time.Duration) {}, send: func(_, i int) error {
		_, _, err := c.post(reqs[i])
		return err
	}}
	res := gen.run(make([]time.Duration, len(reqs)))
	failed := 0
	for _, err := range res.Err {
		if err != nil {
			failed++
		}
	}
	return res.Wall, failed
}

// traceServe is serve-mixed's traced run. Closed-loop bursts with and
// without client spans give the tracing overhead; a traced open-loop
// phase at the fixed rate gives the HTTP, epoch, migrate and generator
// figures; and an in-process replay of that phase's requests through
// Handler().ServeHTTP and the layer calls the handler makes splits a
// request's time by layer.
func traceServe(cfg runConfig, o *outcome, svc *service, c *client, cor *corpus, arrivals *rand.Rand, conns int, log *spanLog, tb *timedBackend) error {
	var overhead []float64
	deadline := time.Now().Add(cfg.seconds * 3 / 10)
	for len(overhead) == 0 || time.Now().Before(deadline) {
		var walls [2]time.Duration
		for i, spans := range []*obs.Observer{nil, log.obs} {
			reqs, err := cor.draw(burstRequests)
			if err != nil {
				return err
			}
			c.spans = spans
			var failed int
			walls[i], failed = burst(c, reqs, conns)
			o.attempted += int64(len(reqs))
			o.failed += int64(failed)
		}
		overhead = append(overhead, walls[1].Seconds()/walls[0].Seconds()-1)
	}

	reqs, err := cor.draw(int(fixedRate * cfg.seconds.Seconds() * fixedShare))
	if err != nil {
		return err
	}
	svc.mu.Lock()
	epochsBefore := len(svc.epochs)
	svc.mu.Unlock()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	attempts, wq, _, err := fixedPhase(o, c, reqs, conns, arrivals)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	ph := attempts[len(attempts)-1]
	for _, ph := range attempts {
		checkPhase(o, svc.snapshots(), ph)
	}
	_, migrateLat := ph.latencies()
	svc.mu.Lock()
	epochs := append([]time.Duration(nil), svc.epochs[epochsBefore:]...)
	svc.mu.Unlock()

	rp, err := replayRequests(o, svc, ph.reqs, log.obs, cfg.seed)
	if err != nil {
		return err
	}
	events, err := log.events()
	if err != nil {
		return err
	}
	st := byName(events)
	if err := log.save(cfg.outDir, fmt.Sprintf("spans-serve-mixed-seed%d.jsonl", cfg.seed)); err != nil {
		return err
	}

	m := o.metrics
	m.add("backend.measure_calls", float64(tb.measureCalls.Load()), "count")
	m.add("backend.measure_s", float64(tb.measureNs.Load())/1e9, "s")
	m.add("place.policy_s", float64(st["place.greedy"].TotalNs+st["place.policy"].TotalNs-rp.migrateGreedyNs)/1e9, "s")
	m.add("place.greedy_us_p50", float64(st["place.greedy"].P50Ns)/1e3, "us")
	m.add("place.completion_us_p50", float64(st["place.completion"].P50Ns)/1e3, "us")
	m.add("serve.http_us_p50", us(durQuantile(ph.rtt, 0.5)), "us")
	m.add("serve.http_us_p99", us(durQuantile(ph.rtt, 0.99)), "us")
	m.add("serve.handler_us_p50", us(durQuantile(rp.handler, 0.5)), "us")
	m.add("serve.handler_us_p99", us(durQuantile(rp.handler, 0.99)), "us")
	m.add("serve.epochs", float64(len(epochs)), "count")
	m.add("serve.epoch_ms_p50", ms(durQuantile(epochs, 0.5)), "ms")
	m.add("serve.place_p99_ms", wq.p99, "ms")
	m.add("serve.migrate_p50_ms", ms(durQuantile(migrateLat, 0.5)), "ms")
	m.add("serve.migrate_p99_ms", ms(durQuantile(migrateLat, 0.99)), "ms")
	m.add("serve.rng_us_p50", float64(st["serve.rng"].P50Ns)/1e3, "us")
	m.add("api.decode_us_p50", float64(st["api.decode"].P50Ns)/1e3, "us")
	m.add("api.encode_us_p50", float64(st["api.encode"].P50Ns)/1e3, "us")
	m.add("gen.late_ms_p99", ms(durQuantile(ph.load.Late, 0.99)), "ms")
	m.add("gen.late_ms_max", ms(durQuantile(ph.load.Late, 1)), "ms")
	m.add("gen.backlog_max", float64(slices.Max(ph.load.Backlog)), "count")
	m.add("runtime.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), "MB")
	m.add("runtime.gc_cycles", float64(after.NumGC-before.NumGC), "count")
	m.add("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, "ms")
	m.add("obs.trace_overhead_ratio", median(overhead), "ratio")
	m.add("obs.spans", float64(len(events)/2), "count")
	m.add("trace.coverage_ratio", ratio(float64(rp.attributed), float64(rp.handlerTotal)), "ratio")
	o.note("migrate_samples", len(migrateLat))
	o.note("replayed_requests", len(rp.handler))
	return nil
}

// replay is the in-process decomposition of a request sample.
type replay struct {
	handler                  []time.Duration
	attributed, handlerTotal time.Duration
	// migrateGreedyNs is the Greedy time of migrate requests, which is
	// re-placement rather than a place request's policy.
	migrateGreedyNs int64
}

// replayRequests runs up to replaySample of reqs through the
// service's handler in process, then through the layer calls the
// handler makes — decode, placement, completion time, encode — each in
// its own span under one serve.request span, with the per-request rng
// seeding of a place request as serve.rng. The handler's time not
// covered by those calls is HTTP framing, routing and quota work.
func replayRequests(o *outcome, svc *service, reqs []*request, ob *obs.Observer, seed int64) (replay, error) {
	var rp replay
	h := svc.srv.Handler()
	seen := epochHashes{}
	stride := max(1, len(reqs)/replaySample)
	timed := func(parent obs.Span, name string, f func() error) (time.Duration, error) {
		span := ob.StartSpan(parent, name)
		start := time.Now()
		err := f()
		d := time.Since(start)
		span.End()
		return d, err
	}
	for i := 0; i < len(reqs); i += stride {
		r := reqs[i]
		root := ob.StartSpan(obs.Span{}, "serve.request")
		rec := httptest.NewRecorder()
		hd, _ := timed(root, "serve.handler", func() error {
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path(), bytes.NewReader(r.body)))
			return nil
		})
		o.attempted++
		var err error
		if rec.Code != http.StatusOK {
			o.failed++
			o.fail("in-process %s: status %d: %s", r.path(), rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			root.End()
			continue
		}
		// The epoch loop keeps publishing while the replay runs.
		snaps := svc.snapshots()
		if r.migrate {
			err = checkMigrate(r, rec.Body.Bytes(), snaps, seen)
		} else {
			err = checkPlace(r, rec.Body.Bytes(), snaps, seen)
		}
		if err != nil {
			o.failed++
			o.fail("in-process %s: %v", r.path(), err)
		}

		env := svc.srv.Snapshot().Env
		var parts time.Duration
		var app *profile.Application
		d, err := timed(root, "api.decode", func() error {
			var spec api.AppSpec
			if r.migrate {
				var req api.MigrateRequest
				if err := json.Unmarshal(r.body, &req); err != nil {
					return err
				}
				spec = req.App
			} else {
				var req api.PlaceRequest
				if err := json.Unmarshal(r.body, &req); err != nil {
					return err
				}
				spec = req.App
			}
			var err error
			app, err = spec.ToApplication()
			return err
		})
		if err != nil {
			root.End()
			return rp, err
		}
		parts += d
		var resp any
		if r.migrate {
			d, err = timed(root, "place.completion", func() error {
				_, err := place.CompletionTime(app, env, place.Placement{MachineOf: r.current}, place.Hose)
				return err
			})
			parts += d
			var prop place.Placement
			if err == nil {
				d, err = timed(root, "place.greedy", func() error {
					prop, err = place.Greedy(app, env, place.Hose)
					return err
				})
				parts += d
				rp.migrateGreedyNs += d.Nanoseconds()
			}
			if err == nil {
				d, err = timed(root, "place.completion", func() error {
					_, err := place.CompletionTime(app, env, prop, place.Hose)
					return err
				})
				parts += d
			}
			var mr api.MigrateResponse
			_ = json.Unmarshal(rec.Body.Bytes(), &mr) // checked above
			resp = mr
		} else {
			alg, perr := api.ParseAlgorithm(r.algorithm)
			if perr != nil {
				root.End()
				return rp, perr
			}
			name := "place.policy"
			if alg == core.AlgChoreo {
				name = "place.greedy"
			}
			// The handler seeds a fresh source for every place request.
			var rng *rand.Rand
			d, _ = timed(root, "serve.rng", func() error {
				rng = rand.New(rand.NewSource(seed + int64(i)))
				return nil
			})
			parts += d
			var p place.Placement
			d, err = timed(root, name, func() error {
				var err error
				p, err = core.PlaceWith(app, env, alg, place.Hose, rng)
				return err
			})
			parts += d
			if err == nil {
				d, err = timed(root, "place.completion", func() error {
					_, err := place.CompletionTime(app, env, p, place.Hose)
					return err
				})
				parts += d
			}
			var pr api.PlaceResponse
			_ = json.Unmarshal(rec.Body.Bytes(), &pr) // checked above
			resp = pr
		}
		if err != nil {
			root.End()
			return rp, err
		}
		d, err = timed(root, "api.encode", func() error {
			var buf bytes.Buffer
			return json.NewEncoder(&buf).Encode(resp)
		})
		root.End()
		if err != nil {
			return rp, err
		}
		parts += d
		rp.handler = append(rp.handler, hd)
		rp.handlerTotal += hd
		rp.attributed += min(parts, hd)
	}
	return rp, nil
}
