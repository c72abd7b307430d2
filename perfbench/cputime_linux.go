//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU returns the CPU time the calling OS thread has consumed
// (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
