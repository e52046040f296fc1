//go:build !unix

package main

import "time"

var processStart = time.Now()

// processCPU falls back to the wall clock where there is no getrusage.
func processCPU() time.Duration { return time.Since(processStart) }
