package main

import (
	"bufio"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile of ds (0 for none).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	k := int(p/100*float64(len(s))+0.5) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakSampler splits a measured window into one-second slices and keeps
// each slice's peak resident set. Their median is the run's peak_rss_mb:
// the peak of a typical second, which one late garbage collection cannot
// decide the way it decides the window's single highest reading.
type peakSampler struct {
	stop, done chan struct{}
	peaks      []float64
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	resetPeakRSS()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.peaks = append(p.peaks, peakRSSMB())
				resetPeakRSS()
			}
		}
	}()
	return p
}

// finish stops the sampler, closes the last slice and returns the median
// slice peak in MiB.
func (p *peakSampler) finish() float64 {
	close(p.stop)
	<-p.done
	p.peaks = append(p.peaks, peakRSSMB())
	return median(p.peaks)
}

// resetPeakRSS resets the kernel's high-water mark of this process's
// resident set (VmHWM), so peakRSSMB reports the peak since the reset,
// not set-up's. Where the kernel refuses, every reading is the peak of the
// whole run.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set in MiB, from VmHWM
// (falling back to getrusage's lifetime maximum).
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// fsType names the filesystem holding dir; flush acknowledgements on a
// durable server are dominated by its fsync cost.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x2FC12FC1:
		return "zfs"
	default:
		return "0x" + strconv.FormatUint(uint64(st.Type), 16)
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if e.IsDir() {
			n += dirBytes(dir + "/" + e.Name())
			continue
		}
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}
