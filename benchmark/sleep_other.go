//go:build !linux

package main

import "time"

// sleepFine sleeps for d on the runtime's timer where package syscall
// offers no nanosleep.
func sleepFine(d time.Duration) { time.Sleep(d) }
