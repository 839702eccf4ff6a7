package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// errGeneratorBehind marks an open-loop phase whose generator could not
// keep its own schedule: its requests went out late, so the offered load
// was not the one intended and the latencies describe no fixed rate.
var errGeneratorBehind = errors.New("load generator fell behind its schedule")

// poissonSchedule draws n arrival offsets of a Poisson process at rate
// per second: exponential interarrivals from rng, cumulative from 0.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop sends requests on a fixed schedule regardless of how fast
// they complete: one generator goroutine releases request i at its due
// time into a queue that conns workers drain, each worker holding one
// connection. A slow server therefore sees the queue grow instead of
// the offered load shrink, and every latency is taken from the due time,
// so a stall is charged to every request queued behind it.
type openLoop struct {
	// conns is the number of workers (connections) draining the queue.
	conns int
	// send issues request i on worker conn and reports its failure.
	send func(conn, i int) error
	// sleep waits for d; the precise sleeper in production, a slow one
	// in the test that proves a late generator invalidates the phase.
	sleep func(d time.Duration)
}

// loadResult is one open-loop phase.
type loadResult struct {
	// Latency[i] is request i's completion minus its due time.
	Latency []time.Duration
	// Err[i] is request i's failure, nil on success.
	Err []error
	// Late[i] is how long after its due time the generator released i.
	Late []time.Duration
	// Backlog[i] is the queue depth (released, not yet taken by a
	// worker) just after request i was released.
	Backlog []int
	// Wall is the phase's wall time, first due time to last completion.
	Wall time.Duration
}

// run plays the schedule and waits for every request to complete.
func (l openLoop) run(schedule []time.Duration) loadResult {
	n := len(schedule)
	res := loadResult{
		Latency: make([]time.Duration, n),
		Err:     make([]error, n),
		Late:    make([]time.Duration, n),
		Backlog: make([]int, n),
	}
	// Sized to the number of sends: the generator never blocks, so a
	// stalled server shows up as queue depth, not as generator lateness.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := range queue {
				res.Err[i] = l.send(conn, i)
				res.Latency[i] = time.Since(start) - schedule[i]
			}
		}(c)
	}
	sleep := l.sleep
	if sleep == nil {
		// The generator owns its thread so the precise sleeper's timer
		// slack setting applies to every wait.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		setPreciseTimer()
		sleep = preciseSleep
	}
	for i, due := range schedule {
		if wait := due - time.Since(start); wait > 0 {
			sleep(wait)
		}
		res.Late[i] = time.Since(start) - due
		queue <- i
		res.Backlog[i] = len(queue)
	}
	close(queue)
	wg.Wait()
	res.Wall = time.Since(start)
	return res
}

// behind reports an invalid phase: one whose generator released more
// than a tenth of its requests over maxLate after they were due. Such
// a phase offered no fixed rate, and the late releases reach the p90 a
// latency report gates on.
func (res loadResult) behind(maxLate time.Duration) error {
	if p := durQuantile(res.Late, 0.9); p > maxLate {
		return fmt.Errorf("%w: p90 release lateness %v exceeds %v", errGeneratorBehind, p, maxLate)
	}
	return nil
}

// window is the part of the result for requests lo to hi-1.
func (res loadResult) window(lo, hi int) loadResult {
	return loadResult{Latency: res.Latency[lo:hi], Err: res.Err[lo:hi], Late: res.Late[lo:hi], Backlog: res.Backlog[lo:hi]}
}

// backlogGrew reports whether the queue depth trended upward over the
// phase: the mean depth over the last quarter of releases exceeds the
// first quarter's by more than two requests per connection. A stable
// queue fluctuates around a constant; one fed faster than it drains
// grows linearly and trips this.
func backlogGrew(backlog []int, conns int) bool {
	q := len(backlog) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return mean(backlog[len(backlog)-q:]) > mean(backlog[:q])+2*float64(conns)
}

// durQuantile returns the q-quantile of ds (nearest rank), 0 when empty.
func durQuantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
