package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procStatusKB reads one kB field, such as VmHWM or VmRSS, from
// /proc/<pid>/status; pid "self" is this process.
func procStatusKB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// resetPeakRSS resets this process's VmHWM to its current RSS (Linux
// clear_refs, value 5).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssSampler reads a process's VmRSS every 50 ms, from its start until
// meanMB is called.
type rssSampler struct {
	stop chan struct{}
	mean chan float64
}

// sampleRSS starts sampling pid ("self" is this process).
func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), mean: make(chan float64)}
	go func() {
		var sum float64
		var n int
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if kb, err := procStatusKB(pid, "VmRSS"); err == nil {
				sum += kb
				n++
			}
			select {
			case <-s.stop:
				if n == 0 {
					s.mean <- 0
				} else {
					s.mean <- sum / float64(n) / 1024
				}
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// meanMB stops the sampler and returns the mean RSS it saw, in MB.
func (s *rssSampler) meanMB() float64 {
	close(s.stop)
	return <-s.mean
}
