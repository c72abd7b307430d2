package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// confirmSeed is the seed reserved for confirming a performance claim; it
// is never used while tuning a change (see NOTES.md).
const confirmSeed = 20031

// host is the host block every result carries.
type host struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Workers     int    `json:"workers"`
	CPU         string `json:"cpu_model"`
	ConfirmSeed int    `json:"confirm_seed"`
}

func hostBlock() host {
	return host{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workers:     nproc,
		CPU:         cpuModel(),
		ConfirmSeed: confirmSeed,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo on Linux.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
