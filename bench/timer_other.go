//go:build !linux

package main

import "time"

// dueTimer falls back to time.Sleep where there is no timerfd; expect
// millisecond slop in open-loop latencies there.
type dueTimer struct{}

func newDueTimer() *dueTimer { return &dueTimer{} }

func (t *dueTimer) close() {}

func (t *dueTimer) waitUntil(due time.Time) {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
}
