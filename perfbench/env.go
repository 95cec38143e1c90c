package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// envStamp records the machine a result was measured on: CPU count,
// GOMAXPROCS, Go version, CPU model and kernel release.
func envStamp() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q kernel=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), kernelRelease())
}

func cpuModel() string {
	v, _ := procField("/proc/cpuinfo", "model name")
	if v == "" {
		return "unknown"
	}
	return v
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	v, err := procField("/proc/self/status", "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// procField returns the value of the first "key: value" line of a /proc
// file whose key matches.
func procField(path, key string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no %s line", path, key)
}
