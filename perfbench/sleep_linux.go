package main

import (
	"syscall"
	"time"
)

// preciseSleep sleeps in nanosleep(2), which wakes within tens of
// microseconds where a Go timer may take a millisecond.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
