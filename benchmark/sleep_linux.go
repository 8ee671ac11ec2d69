package main

import (
	"syscall"
	"time"
)

// sleepFine blocks the calling thread for d on the kernel's
// high-resolution timer, which wakes it within tens of microseconds.
func sleepFine(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
