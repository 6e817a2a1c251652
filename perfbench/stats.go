package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tailQuantile is the percentile reported as tail_ms: the highest that
// repeats within a tenth between runs on a 2-vCPU host whose steal time
// swings between 0 and 10%. Over ten match-hot runs the quartile spread
// was 8% for p50 and p75, 14% for p90 and 11% for p99; one run at 7.6%
// steal read p75 +7% and p90 +35% against a calm one.
const tailQuantile = 0.75

// median returns the middle of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the tailQuantile latency of ok, counting each of failed
// operations as slower than any success (a failed operation misses every
// latency limit and reads as missLatency). The rank is lowered until at
// least ten samples lie beyond it. Below forty operations there is no
// tail to speak of, and the median of all operations is returned.
func tail(ok []float64, failed int, missLatency float64) float64 {
	n := len(ok) + failed
	if n == 0 {
		return math.NaN()
	}
	all := append([]float64(nil), ok...)
	for i := 0; i < failed; i++ {
		all = append(all, missLatency)
	}
	if n < 40 {
		return median(all)
	}
	sort.Float64s(all)
	idx := min(int(math.Ceil(tailQuantile*float64(n)))-1, n-11)
	return all[idx]
}

// heapSampler polls the live heap (as marked by the latest GC) while a
// window runs and keeps the peak. Unlike the heap's total size it does
// not depend on when collections happen to run. runtime/metrics reads do
// not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

// allocatedBytes is the cumulative heap allocation of the process.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTimes is the aggregate line of /proc/stat: total jiffies and the
// share the hypervisor gave to other guests (steal).
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() (cpuTimes, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, true
}

// stealPercent is the host's steal time between two readings as a
// percentage of all CPU time, or -1 where /proc/stat is unreadable.
func stealPercent(a, b cpuTimes, ok bool) float64 {
	if !ok || b.total <= a.total {
		return -1
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stamp describes the build and the machine a run measured.
type stamp struct {
	Revision   string  `json:"revision"`
	Modified   string  `json:"vcs_modified"`
	GoVersion  string  `json:"go"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	WindowS    float64 `json:"window_s"`
	StealPct   float64 `json:"steal_pct"`
}

var cpuModel = sync.OnceValue(func() string {
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
})

func newStamp(workload string, seed int64, trace bool) stamp {
	s := stamp{
		Revision:   "unknown",
		Modified:   "unknown",
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Revision = kv.Value
			case "vcs.modified":
				s.Modified = kv.Value
			}
		}
	}
	return s
}
