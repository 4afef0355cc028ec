package main

import (
	"hash/fnv"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's maximum resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// loadAvg1 is the host's one-minute load average, read with sysinfo(2) so
// the benchmark opens no file outside its checkout.
func loadAvg1() float64 {
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err != nil {
		return -1
	}
	return float64(si.Loads[0]) / (1 << 16) // SI_LOAD_SHIFT
}

// subSeed derives an independent seed for one use of the workload seed, so
// every matrix, source list and mix order follows from --seed alone.
func subSeed(seed int64, tag string) int64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	z := uint64(seed) ^ h.Sum64()
	// splitmix64 finalizer
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
