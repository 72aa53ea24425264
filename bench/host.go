package main

import (
	"bufio"
	"os"
	"runtime/debug"
	"strings"
	"time"
)

// spinSink keeps the spin kernel's result alive.
var spinSink uint64

// spinIters is the fixed work of the spin kernel.
const spinIters = 4_000_000

// spinMs times a fixed, allocation-free, single-threaded arithmetic kernel.
// It is the benchmark's reading of how fast the host is right now: the
// reference box drifts by 20% over tens of seconds, and a round whose reading
// is far from the invocation's median ran on a disturbed machine.
func spinMs() float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		x := uint64(rep) + 1
		start := time.Now()
		for i := 0; i < spinIters; i++ {
			x = splitmix(x)
		}
		d := float64(time.Since(start)) / 1e6
		spinSink += x
		if rep == 0 || d < best {
			best = d
		}
	}
	return best
}

// cpuModel is the processor name the kernel reports, for the environment
// stamp; "unknown" where /proc/cpuinfo has none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// buildCommit is the VCS revision the binary was built from, when the build
// ran inside a git checkout (the driver's checkouts are not).
func buildCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
