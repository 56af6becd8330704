package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procIOWriteBytes returns the process's write_bytes counter from
// /proc/self/io: bytes this process caused to be sent to storage.
func procIOWriteBytes() (int64, error) {
	return procField("/proc/self/io", "write_bytes:", 1)
}

// peakRSSMiB returns the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	kb, err := procField("/proc/self/status", "VmHWM:", 1)
	return float64(kb) / 1024, err
}

// procField returns the integer in column col of the first line of path
// that starts with prefix.
func procField(path, prefix string, col int) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), prefix) {
			fields := strings.Fields(sc.Text())
			if len(fields) <= col {
				break
			}
			return strconv.ParseInt(fields[col], 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no %q line", path, prefix)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fsyncProbe times a 12 KiB write + fsync + rename in dir, the shape of
// one small durable save, reps times, and returns the median in
// microseconds. It calibrates the host's disk, not the program.
func fsyncProbe(dir string, reps int) (float64, error) {
	buf := make([]byte, 12<<10)
	path := filepath.Join(dir, "fsync-probe")
	var ds []float64
	for i := 0; i < reps; i++ {
		t0 := now()
		f, err := os.OpenFile(path+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return 0, err
		}
		_, werr := f.Write(buf)
		serr := f.Sync()
		cerr := f.Close()
		if err := errors.Join(werr, serr, cerr); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		if err := os.Rename(path+".tmp", path); err != nil {
			return 0, err
		}
		ds = append(ds, us(time.Since(t0)))
	}
	_ = os.Remove(path)
	return median(ds), nil
}

// cpuSink keeps the compiler from deleting the probe loop.
var cpuSink uint64

// cpuProbe times a fixed integer loop (xorshift, 2^24 steps), median of
// five, in nanoseconds: a host-speed calibration independent of the
// program.
func cpuProbe() float64 {
	var ds []float64
	for r := 0; r < 5; r++ {
		t0 := now()
		x := uint64(88172645463325252)
		for i := 0; i < 1<<24; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		cpuSink += x
		ds = append(ds, float64(time.Since(t0).Nanoseconds()))
	}
	return median(ds)
}
