package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// cpuSeconds returns the process's user+sys CPU time from getrusage.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// threadCPU returns the calling thread's CPU time
// (CLOCK_THREAD_CPUTIME_ID). The caller must be locked to its OS thread.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// phase brackets a measured phase: the process's CPU time, the host's
// steal time, and the heap size sampled every heapEvery.
type phase struct {
	cpu0   float64
	steal0 float64
	done   chan struct{}
	wg     sync.WaitGroup
	heap   []float64 // bytes, one sample per heapEvery
	// input is the resident size of the benchmark's own inputs, which
	// stay live through the phase; heapPeak leaves it out.
	input float64

	cpu   float64
	steal float64
}

const (
	heapMetric = "/memory/classes/heap/objects:bytes"
	heapEvery  = 2 * time.Millisecond
)

// startPhase starts measuring. input is the resident size in bytes of
// the inputs the benchmark holds through the phase (see residentBytes).
func startPhase(input uint64) *phase {
	runtime.GC()
	p := &phase{cpu0: cpuSeconds(), steal0: stealSeconds(), done: make(chan struct{}), input: float64(input)}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				p.heap = append(p.heap, float64(s[0].Value.Uint64()))
			}
			select {
			case <-p.done:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *phase) stop() {
	close(p.done)
	p.wg.Wait()
	p.cpu = cpuSeconds() - p.cpu0
	p.steal = stealSeconds() - p.steal0
}

// heapPeak is the 99th percentile of the sampled heap size, less the
// benchmark's inputs: the program's heap in use was larger only 1% of
// the time. The strict maximum depends on which allocations happen to
// coincide just before a collection and does not repeat as closely.
func (p *phase) heapPeak() float64 { return percentile(p.heap, 99) - p.input }

// note describes the phase for the provenance lines.
func (p *phase) note() string {
	return fmt.Sprintf("phase: cpu %.3f s, host steal %.3f s, heap p99 %.2f MB, max %.2f MB over %d samples, of which input %.2f MB",
		p.cpu, p.steal, (percentile(p.heap, 99))/(1<<20), percentile(p.heap, 100)/(1<<20), len(p.heap), p.input/(1<<20))
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// residentBytes is how much live heap build's result takes: the live
// heap after build minus the live heap before it, with the result held
// until the second reading.
func residentBytes(build func() any) uint64 {
	before := liveHeap()
	x := build()
	after := liveHeap()
	runtime.KeepAlive(x)
	if after < before {
		return 0
	}
	return after - before
}

// stealSeconds is the time the hypervisor ran other guests while this
// host's CPUs wanted to run, summed over CPUs (the steal column of the
// aggregate cpu line of /proc/stat); NaN where unavailable. It tells a
// noisy neighbour apart from a slower program.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return math.NaN()
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return math.NaN()
	}
	return v / 100 // USER_HZ
}

// stopwatch accumulates wall time across start/pause pairs, so waits on
// timers or other processes can be left out of a measured interval.
type stopwatch struct {
	total   time.Duration
	started time.Time
	running bool
}

func (s *stopwatch) start() {
	if !s.running {
		s.started = time.Now()
		s.running = true
	}
}

func (s *stopwatch) pause() {
	if s.running {
		s.total += time.Since(s.started)
		s.running = false
	}
}

func (s *stopwatch) seconds() float64 {
	s.pause()
	return s.total.Seconds()
}

// median returns the median of xs (the mean of the middle two for an
// even count); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (p in
// [0,100]); NaN when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return percentileSorted(sortedCopy(xs), p)
}

func percentileSorted(s []float64, p float64) float64 {
	// The epsilon keeps p/100 rounding (99.9/100 > 0.999) off the rank.
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailLadder is the set of percentiles tailPercentile chooses from.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of the ladder that has
// at least minBeyond samples strictly above its value, that value, and
// the sample count. With too few samples for any rung it returns the
// median rung.
func tailPercentile(xs []float64, minBeyond int) (p, value float64, n int) {
	n = len(xs)
	if n == 0 {
		return 50, math.NaN(), 0
	}
	s := sortedCopy(xs)
	for _, p := range tailLadder {
		v := percentileSorted(s, p)
		beyond := n - sort.Search(n, func(i int) bool { return s[i] > v })
		if beyond >= minBeyond {
			return p, v, n
		}
	}
	return 50, percentileSorted(s, 50), n
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// growing reports whether a sampled backlog rose across a phase: the
// median of its last third exceeds the median of its first third by
// more than slack. Above the sustainable rate the backlog grows without
// bound, so it soon clears any slack; medians keep a burst of host
// contention shorter than half a third from tripping the check.
func growing(xs []float64, slack float64) bool {
	if len(xs) < 6 {
		return false
	}
	k := len(xs) / 3
	return median(xs[len(xs)-k:]) > median(xs[:k])+slack
}

// lateSlack is how many input intervals a generator's median lateness
// may rise across the measured phase before the run counts as above
// the sustainable rate.
const lateSlack = 5

// pacer schedules an open loop: input i is due at start + i*interval,
// whether or not earlier inputs have been answered.
type pacer struct {
	start    time.Time
	interval time.Duration
}

func (p pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

// wait sleeps until input i is due.
func (p pacer) wait(i int) {
	if w := time.Until(p.due(i)); w > 0 {
		time.Sleep(w)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit returns the VCS revision stamped into the binary, if the build
// ran inside a git work tree.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root, so results
// from a checkout without git history still name the code they measured.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
