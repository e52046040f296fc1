//go:build unix

package main

import (
	"syscall"
	"time"
)

// processCPU is the CPU time, user and system, this process has consumed on
// all its threads. Time a hypervisor spends running someone else on our core
// is not in it, which is why the timed metrics are taken on this clock.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF into a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
