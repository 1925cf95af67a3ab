//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// dueTimer wakes a goroutine at a due time to well under a millisecond.
//
// time.Sleep cannot: when every P is idle the Go runtime waits in epoll,
// whose timeout counts whole milliseconds, so a sleep shorter than a tick
// overshoots by up to a tick and an open-loop generator built on it is late
// by construction. A timerfd expiry arrives through the same epoll as a
// readiness event, which is delivered at once.
type dueTimer struct {
	fd uintptr // kept beside f: File.Fd would put the descriptor in blocking mode
	f  *os.File
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newDueTimer() *dueTimer {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return &dueTimer{}
	}
	return &dueTimer{fd: fd, f: os.NewFile(fd, "timerfd")}
}

func (t *dueTimer) close() {
	if t.f != nil {
		t.f.Close()
	}
}

// waitUntil returns at due, or at once if due has passed.
func (t *dueTimer) waitUntil(due time.Time) {
	d := time.Until(due)
	if d <= 0 {
		return
	}
	if t.f == nil {
		time.Sleep(d)
		return
	}
	// struct itimerspec{ it_interval, it_value }: a one-shot d from now.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	if _, err := t.f.Read(expirations[:]); err != nil {
		time.Sleep(time.Until(due))
	}
}
