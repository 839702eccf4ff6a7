package main

import (
	"errors"
	"testing"
	"time"
)

// TestStallChargedToQueuedRequests puts a handler that stalls once
// behind the generator: the requests due during the stall must carry
// the wait in their latency, because latency runs from the due time,
// while the generator itself stays on schedule.
func TestStallChargedToQueuedRequests(t *testing.T) {
	const (
		n       = 60
		spacing = 2 * time.Millisecond
		stallAt = 10
		stall   = 60 * time.Millisecond
	)
	schedule := make([]time.Duration, n)
	for i := range schedule {
		schedule[i] = time.Duration(i) * spacing
	}
	gen := openLoop{conns: 1, send: func(_, i int) error {
		if i == stallAt {
			time.Sleep(stall)
		}
		return nil
	}}
	res := gen.run(schedule)
	if err := res.behind(5 * time.Millisecond); err != nil {
		t.Fatalf("the generator fell behind a stalled handler: %v", err)
	}
	// Request stallAt+k was due k×spacing after the stalled one, which
	// completed no earlier than stall after its own due time, so k's
	// latency is at least stall - k×spacing.
	queued := 0
	for k := 1; stallAt+k < n && time.Duration(k)*spacing < stall; k++ {
		i := stallAt + k
		floor := stall - time.Duration(k)*spacing
		if res.Latency[i] < floor {
			t.Errorf("request %d due %v into the stall: latency %v, want >= %v", i, time.Duration(k)*spacing, res.Latency[i], floor)
		}
		queued++
	}
	if queued == 0 {
		t.Fatal("no request was due during the stall")
	}
	if res.Latency[stallAt-1] >= stall/2 {
		t.Errorf("request before the stall: latency %v, want well under %v", res.Latency[stallAt-1], stall)
	}
	peak := 0
	for _, b := range res.Backlog {
		peak = max(peak, b)
	}
	if peak < int(stall/spacing)/2 {
		t.Errorf("backlog peaked at %d during a %v stall at %v spacing", peak, stall, spacing)
	}
}

// TestLateGeneratorInvalidatesPhase makes the generator oversleep every
// wait: the phase must be reported invalid rather than yield latencies.
func TestLateGeneratorInvalidatesPhase(t *testing.T) {
	schedule := make([]time.Duration, 40)
	for i := range schedule {
		schedule[i] = time.Duration(i) * time.Millisecond
	}
	gen := openLoop{
		conns: 2,
		send:  func(_, _ int) error { return nil },
		sleep: func(d time.Duration) { time.Sleep(d + 10*time.Millisecond) },
	}
	res := gen.run(schedule)
	if err := res.behind(2 * time.Millisecond); !errors.Is(err, errGeneratorBehind) {
		t.Fatalf("check = %v, want %v", err, errGeneratorBehind)
	}
}

func TestBacklogGrew(t *testing.T) {
	steady := []int{0, 1, 0, 2, 1, 0, 1, 0}
	growing := []int{0, 1, 2, 4, 6, 9, 12, 15}
	if backlogGrew(steady, 2) {
		t.Error("a fluctuating backlog counted as growing")
	}
	if !backlogGrew(growing, 2) {
		t.Error("a linearly growing backlog not detected")
	}
}

func TestValidWindows(t *testing.T) {
	const n = 500
	ph := phase{reqs: make([]*request, n), load: loadResult{
		Latency: make([]time.Duration, n), Err: make([]error, n), Late: make([]time.Duration, n), Backlog: make([]int, n),
	}}
	for i := range ph.reqs {
		ph.reqs[i] = &request{}
		ph.load.Latency[i] = time.Millisecond
	}
	// A burst in one window moves that window's p99 only.
	for i := 0; i < 50; i++ {
		ph.load.Latency[i] = 50 * time.Millisecond
	}
	// A window whose generator ran late is set aside, however fast its
	// requests were.
	for i := 400; i < 500; i++ {
		ph.load.Late[i] = 10 * time.Millisecond
		ph.load.Latency[i] = time.Microsecond
	}
	windows := ph.validWindows(5)
	if len(windows) != 4 {
		t.Fatalf("%d valid windows, want 4", len(windows))
	}
	var p99s []float64
	for _, w := range windows {
		p99s = append(p99s, w.p99)
	}
	if median(p99s) != 1 {
		t.Errorf("window p99s %v ms; want median 1", p99s)
	}
}
