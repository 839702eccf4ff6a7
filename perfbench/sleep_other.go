//go:build !linux

package main

import "time"

// setPreciseTimer has no portable equivalent; the runtime timer is used.
func setPreciseTimer() {}

// preciseSleep falls back to the runtime timer.
func preciseSleep(d time.Duration) { time.Sleep(d) }
