package main

import (
	"syscall"
	"time"
)

// prSetTimerslack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerslack = 29

// setPreciseTimer drops the calling thread's timer slack to 1µs, so a
// nanosleep wakes within tens of microseconds of its deadline instead of
// the runtime timer's millisecond granularity. Best effort: on failure
// the generator is merely later, which its lateness metrics report.
func setPreciseTimer() {
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
}

// preciseSleep blocks the calling thread in nanosleep(2) for d.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; the caller re-reads the clock
}
