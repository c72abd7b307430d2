//go:build !linux

package main

import "time"

var epoch = time.Now()

// threadCPU falls back to wall time where no per-thread CPU clock is
// available.
func threadCPU() time.Duration { return time.Since(epoch) }
