//go:build linux

package main

import (
	"syscall"
	"time"
)

// pace sleeps for d with the kernel's nanosleep, which wakes within tens of
// microseconds. The runtime timer behind time.Sleep wakes on a millisecond
// grid on Linux, which would bunch the open loop's requests into bursts.
func pace(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
