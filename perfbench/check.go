package main

import (
	"encoding/json"
	"fmt"
	"slices"

	"choreo/internal/api"
	"choreo/internal/core"
	"choreo/internal/place"
	"choreo/internal/serve"
)

// epochHashes tracks the env hash each epoch was served with, across
// every response of a run: one epoch serving two hashes is a torn
// snapshot.
type epochHashes map[int64]string

// see records one response's epoch and hash and reports a tear.
func (e epochHashes) see(epoch int64, hash string, snaps map[int64]*serve.Snapshot) error {
	snap, ok := snaps[epoch]
	if !ok {
		return fmt.Errorf("epoch %d was never published", epoch)
	}
	if hash != snap.Hash {
		return fmt.Errorf("epoch %d served env %s, published as %s", epoch, hash, snap.Hash)
	}
	if prev, ok := e[epoch]; ok && prev != hash {
		return fmt.Errorf("epoch %d served two envs, %s and %s", epoch, prev, hash)
	}
	e[epoch] = hash
	return nil
}

// checkPhase verifies every successful response of a phase against the
// snapshot of the epoch it names, counting each wrong one as failed.
func checkPhase(o *outcome, snaps map[int64]*serve.Snapshot, ph phase) {
	seen := epochHashes{}
	bad := 0
	var first error
	for i, r := range ph.reqs {
		if ph.load.Err[i] != nil {
			continue
		}
		var err error
		if r.migrate {
			err = checkMigrate(r, ph.bodies[i], snaps, seen)
		} else {
			err = checkPlace(r, ph.bodies[i], snaps, seen)
		}
		if err != nil {
			bad++
			if first == nil {
				first = fmt.Errorf("request %d (%s): %w", i, r.path(), err)
			}
		}
	}
	if bad > 0 {
		o.failed += int64(bad)
		o.fail("%d responses wrong; first: %v", bad, first)
	}
}

// checkPlace verifies a place response: the epoch's snapshot is the one
// published, every task sits on a machine that exists and has the CPU
// for it, the predicted completion is place.CompletionTime on that
// snapshot, and a deterministic policy's placement is core.PlaceWith's.
func checkPlace(r *request, body []byte, snaps map[int64]*serve.Snapshot, seen epochHashes) error {
	var resp api.PlaceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if err := seen.see(resp.Epoch, resp.EnvHash, snaps); err != nil {
		return err
	}
	env := snaps[resp.Epoch].Env
	app, err := r.spec.ToApplication()
	if err != nil {
		return err
	}
	p := place.Placement{MachineOf: resp.MachineOf}
	if err := p.Validate(app, env); err != nil {
		return err
	}
	ct, err := place.CompletionTime(app, env, p, place.Hose)
	if err != nil {
		return err
	}
	if ct.Seconds() != resp.PredictedCompletionSeconds {
		return fmt.Errorf("predicted %v s, CompletionTime gives %v s", resp.PredictedCompletionSeconds, ct.Seconds())
	}
	want := r.algorithm
	if want == "" {
		want = "choreo"
	}
	if resp.Algorithm != want {
		return fmt.Errorf("placed by %q, asked for %q", resp.Algorithm, want)
	}
	if r.algorithm == "random" {
		return nil
	}
	alg, err := api.ParseAlgorithm(r.algorithm)
	if err != nil {
		return err
	}
	ref, err := core.PlaceWith(app, env, alg, place.Hose, nil)
	if err != nil {
		return err
	}
	if !slices.Equal(ref.MachineOf, resp.MachineOf) {
		return fmt.Errorf("machineOf %v, core.PlaceWith gives %v", resp.MachineOf, ref.MachineOf)
	}
	return nil
}

// checkMigrate verifies a migrate response: the proposal is Greedy's,
// both completion times are CompletionTime's, and the verdict follows
// the gain rule.
func checkMigrate(r *request, body []byte, snaps map[int64]*serve.Snapshot, seen epochHashes) error {
	var resp api.MigrateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if err := seen.see(resp.Epoch, resp.EnvHash, snaps); err != nil {
		return err
	}
	env := snaps[resp.Epoch].Env
	app, err := r.spec.ToApplication()
	if err != nil {
		return err
	}
	cur, err := place.CompletionTime(app, env, place.Placement{MachineOf: r.current}, place.Hose)
	if err != nil {
		return err
	}
	prop, err := place.Greedy(app, env, place.Hose)
	if err != nil {
		return err
	}
	propCT, err := place.CompletionTime(app, env, prop, place.Hose)
	if err != nil {
		return err
	}
	if !slices.Equal(prop.MachineOf, resp.MachineOf) {
		return fmt.Errorf("proposed machineOf %v, Greedy gives %v", resp.MachineOf, prop.MachineOf)
	}
	if resp.CurrentSeconds != cur.Seconds() || resp.ProposedSeconds != propCT.Seconds() {
		return fmt.Errorf("current/proposed %v/%v s, CompletionTime gives %v/%v s",
			resp.CurrentSeconds, resp.ProposedSeconds, cur.Seconds(), propCT.Seconds())
	}
	migrate := propCT < cur
	if cur > 0 {
		migrate = (cur-propCT).Seconds()/cur.Seconds() >= migrateMinGain
	}
	if resp.Migrate != migrate {
		return fmt.Errorf("migrate=%v, the %.0f%% gain rule says %v", resp.Migrate, 100*migrateMinGain, migrate)
	}
	return nil
}
