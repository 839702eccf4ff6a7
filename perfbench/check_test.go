package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"choreo/internal/api"
	"choreo/internal/place"
	"choreo/internal/serve"
	"choreo/internal/sweep"
	"choreo/internal/sweep/backend"
)

// servedResponse boots an in-process service, sends r through its
// handler and returns the response body with the published snapshots.
func servedResponse(t *testing.T, r *request) ([]byte, map[int64]*serve.Snapshot) {
	t.Helper()
	srv := serve.New(serve.Config{Backend: backend.NewSim(), Cell: serveCell(7), Model: place.Hose, Seed: 7})
	if err := srv.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path(), bytes.NewReader(r.body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", r.path(), rec.Code, rec.Body.String())
	}
	snap := srv.Snapshot()
	return rec.Body.Bytes(), map[int64]*serve.Snapshot{snap.Epoch: snap}
}

// testRequests draws a place request of each policy and a migrate.
func testRequests(t *testing.T) []*request {
	t.Helper()
	srv := serve.New(serve.Config{Backend: backend.NewSim(), Cell: serveCell(7), Model: place.Hose, Seed: 7})
	if err := srv.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	cor, err := newCorpus(7, srv.Snapshot().Env)
	if err != nil {
		t.Fatal(err)
	}
	var out []*request
	seen := map[string]bool{}
	for len(out) < 5 {
		r, err := cor.next()
		if err != nil {
			t.Fatal(err)
		}
		kind := r.algorithm
		if r.migrate {
			kind = "migrate"
		}
		if !seen[kind] {
			seen[kind] = true
			out = append(out, r)
		}
	}
	return out
}

// corrupt decodes body into v, applies f and re-encodes.
func corrupt[T any](t *testing.T, body []byte, f func(*T)) []byte {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	f(&v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func checkResponse(r *request, body []byte, snaps map[int64]*serve.Snapshot) error {
	if r.migrate {
		return checkMigrate(r, body, snaps, epochHashes{})
	}
	return checkPlace(r, body, snaps, epochHashes{})
}

// TestServeChecksCatchCorruption proves each serve-mixed check passes on
// the service's own responses and fails on a corrupted one.
func TestServeChecksCatchCorruption(t *testing.T) {
	for _, r := range testRequests(t) {
		name := r.path() + " " + r.algorithm
		body, snaps := servedResponse(t, r)
		if err := checkResponse(r, body, snaps); err != nil {
			t.Fatalf("%s: check failed on a correct response: %v", name, err)
		}
		var bad map[string][]byte
		if r.migrate {
			bad = map[string][]byte{
				"proposed seconds": corrupt(t, body, func(m *api.MigrateResponse) { m.ProposedSeconds *= 1.01 }),
				"machineOf":        corrupt(t, body, func(m *api.MigrateResponse) { m.MachineOf[0] = len(snaps) + 99 }),
				"verdict":          corrupt(t, body, func(m *api.MigrateResponse) { m.Migrate = !m.Migrate }),
				"env hash":         corrupt(t, body, func(m *api.MigrateResponse) { m.EnvHash = "torn" }),
			}
		} else {
			bad = map[string][]byte{
				"completion seconds": corrupt(t, body, func(p *api.PlaceResponse) { p.PredictedCompletionSeconds += 0.5 }),
				"machineOf out of range": corrupt(t, body, func(p *api.PlaceResponse) {
					p.MachineOf[0] = serveVMs
				}),
				"env hash": corrupt(t, body, func(p *api.PlaceResponse) { p.EnvHash = "torn" }),
				"epoch":    corrupt(t, body, func(p *api.PlaceResponse) { p.Epoch++ }),
			}
			if r.algorithm != "random" {
				bad["machineOf moved"] = corrupt(t, body, func(p *api.PlaceResponse) {
					p.MachineOf[0], p.MachineOf[len(p.MachineOf)-1] = p.MachineOf[len(p.MachineOf)-1], (p.MachineOf[0]+1)%serveVMs
				})
			}
		}
		for what, b := range bad {
			if err := checkResponse(r, b, snaps); err == nil {
				t.Errorf("%s: corrupted %s passed the check", name, what)
			}
		}
	}
}

// TestTornEpochDetected serves one epoch under two env hashes.
func TestTornEpochDetected(t *testing.T) {
	snaps := map[int64]*serve.Snapshot{3: {Epoch: 3, Hash: "aaaa"}}
	seen := epochHashes{}
	if err := seen.see(3, "aaaa", snaps); err != nil {
		t.Fatal(err)
	}
	seen[4] = "bbbb"
	snaps[4] = &serve.Snapshot{Epoch: 4, Hash: "cccc"}
	if err := seen.see(4, "cccc", snaps); err == nil || !strings.Contains(err.Error(), "two envs") {
		t.Fatalf("epoch 4 served as bbbb then cccc: err = %v", err)
	}
}

// sweepBatch runs batch b of a workload's grid at benchmark seed 1.
func sweepBatch(t *testing.T, grid gridFunc) batch {
	t.Helper()
	bt, err := expandAndRun(grid, 1, 0, sweep.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// TestSweepChecksCatchCorruption proves the sweep checks pass on the
// engine's own stream and fail when a completion or optimal time, or
// the stream order, is corrupted.
func TestSweepChecksCatchCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both sweep grids")
	}
	for _, tc := range []struct {
		name string
		grid gridFunc
	}{{"snapshot", snapshotGrid}, {"sequence", sequenceGrid}} {
		bt := sweepBatch(t, tc.grid)
		o := &outcome{}
		checkBatch(o, bt, 2)
		if len(o.problems) > 0 {
			t.Fatalf("%s: checks failed on the engine's own stream: %v", tc.name, o.problems)
		}

		group := cellGroups(bt.g, bt.scs)[0]
		results := append([]sweep.Result(nil), bt.results...)
		results[group[1]].CompletionSeconds *= 1.000001
		if err := newReplayer(bt.g, nil).recompute(bt.scs, results, group); err == nil {
			t.Errorf("%s: changed completion seconds passed the recompute", tc.name)
		}
		if tc.name == "snapshot" {
			results := append([]sweep.Result(nil), bt.results...)
			v := *results[group[0]].OptimalSeconds + 1
			results[group[0]].OptimalSeconds = &v
			if err := newReplayer(bt.g, nil).recompute(bt.scs, results, group); err == nil {
				t.Errorf("%s: changed optimal seconds passed the recompute", tc.name)
			}
		}

		swapped := append([]sweep.Result(nil), bt.results...)
		swapped[0], swapped[1] = swapped[1], swapped[0]
		if _, bad := checkStream(bt.scs, swapped); bad != 2 {
			t.Errorf("%s: two swapped results counted as %d wrong", tc.name, bad)
		}
		if _, bad := checkStream(bt.scs, bt.results[1:]); bad == 0 {
			t.Errorf("%s: a missing result went unnoticed", tc.name)
		}
	}
}

// TestRecordedDigests reproduces the digest recorded for seed 1.
func TestRecordedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both sweep grids")
	}
	for name, grid := range map[string]gridFunc{"snapshot-sweep": snapshotGrid, "sequence-sweep": sequenceGrid} {
		want, ok := recordedDigests[name][1]
		if !ok {
			t.Fatalf("%s: no digest recorded for seed 1", name)
		}
		bt := sweepBatch(t, grid)
		if got, _ := checkStream(bt.scs, bt.results); got != want {
			t.Errorf("%s seed 1: stream sha256 %s, recorded %s", name, got, want)
		}
	}
}
