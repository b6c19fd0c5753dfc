package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"eddie/internal/obs"
	"eddie/internal/synthbench"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing should be NaN")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
	}{
		{10, 50},   // too few for any tail rung: the median rung
		{40, 75},   // 10 beyond p75
		{100, 90},  // 10 beyond p90
		{1000, 99}, // 10 beyond p99
		{10000, 99.9},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // unsorted input
		}
		p, v, n := tailPercentile(xs, 10)
		if p != c.wantP || n != c.n {
			t.Errorf("n=%d: got p%g (n=%d), want p%g", c.n, p, n, c.wantP)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if p != 50 && beyond < 10 {
			t.Errorf("n=%d: p%g = %g has only %d samples beyond it", c.n, p, v, beyond)
		}
	}
	if _, v, n := tailPercentile(nil, 10); n != 0 || !math.IsNaN(v) {
		t.Errorf("empty input: value %g, n %d", v, n)
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		{name: "feed", lane: 1, start: 0, end: 100},
		{name: "stft", lane: 1, start: 10, end: 30},
		{name: "observe", lane: 1, start: 40, end: 60},
		{name: "ks", lane: 1, start: 45, end: 50},
		{name: "feed", lane: 1, start: 200, end: 250},
		{name: "late", lane: 1, start: 240, end: 260}, // overruns its parent
		{name: "feed", lane: 2, start: 0, end: 1000},  // other lane: no children
	}
	got := selfTimes(spans)
	want := map[string]struct{ count, total, self int64 }{
		"feed":    {3, 100 + 50 + 1000, (100 - 20 - 20) + (50 - 10) + 1000},
		"stft":    {1, 20, 20},
		"observe": {1, 20, 15},
		"ks":      {1, 5, 5},
		"late":    {1, 20, 20},
	}
	for name, w := range want {
		lt := got[name]
		if lt == nil {
			t.Fatalf("no entry for %s", name)
		}
		if int64(lt.count) != w.count || lt.totalNs != w.total || lt.selfNs != w.self {
			t.Errorf("%s: count %d total %d self %d, want %d %d %d", name, lt.count, lt.totalNs, lt.selfNs, w.count, w.total, w.self)
		}
	}
	if us := perWindowUs(got, "observe", true, 5); us != 15.0/1e3/5 {
		t.Errorf("perWindowUs = %g", us)
	}
}

func TestImportRecorderAlignsAndPrefixes(t *testing.T) {
	log := newSpanLog()
	rec, origin := tracedRecorder(true)
	tk := rec.Track("stream")
	sp := tk.Start("stft")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	tk.Instant("report")
	if err := log.importRecorder(rec, origin, 7, false, "det."); err != nil {
		t.Fatal(err)
	}
	if log.len() != 1 {
		t.Fatalf("imported %d spans, want 1 (instants skipped)", log.len())
	}
	s := log.spans[0]
	if s.name != "det.stft" || s.lane != 7 || s.dur() < int64(2*time.Millisecond) {
		t.Fatalf("imported span %+v", s)
	}
	if s.start < int64(origin.Sub(log.t0)) {
		t.Fatalf("span starts before its recorder: %+v", s)
	}
	var nilLog *spanLog
	if err := nilLog.importRecorder(obs.NewRecorder(), origin, 0, false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestCPUSecondsFromGetrusage(t *testing.T) {
	// Spin until getrusage reports 100 ms of CPU: a busy goroutine must
	// accumulate CPU time, and no faster than the wall clock (plus the
	// runtime's own threads).
	c0 := cpuSeconds()
	w0 := time.Now()
	x := 0.0
	for cpuSeconds()-c0 < 0.1 {
		if time.Since(w0) > 10*time.Second {
			t.Fatalf("10 s of spinning used only %.3f cpu s", cpuSeconds()-c0)
		}
		for i := 0; i < 10000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	used := cpuSeconds() - c0
	if wall := time.Since(w0).Seconds(); used > wall+0.05 {
		t.Fatalf("busy loop of %.3f s wall used %.3f cpu s (x=%g)", wall, used, x)
	}
}

func TestThreadCPUCountsOnlyRunning(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	time.Sleep(50 * time.Millisecond)
	if slept := threadCPU() - c0; slept > 20*time.Millisecond {
		t.Fatalf("50 ms asleep used %v of thread CPU", slept)
	}
	c0, w0 := threadCPU(), time.Now()
	x := 0.0
	for threadCPU()-c0 < 50*time.Millisecond {
		if time.Since(w0) > 10*time.Second {
			t.Fatalf("10 s of spinning used only %v of thread CPU", threadCPU()-c0)
		}
		for i := 0; i < 10000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	if used, wall := threadCPU()-c0, time.Since(w0); used > wall+time.Millisecond {
		t.Fatalf("busy loop of %v wall used %v of thread CPU (x=%g)", wall, used, x)
	}
}

func TestGrowing(t *testing.T) {
	flat := []float64{1, 2, 1, 2, 1, 2, 1, 2, 1}
	if growing(flat, 0.5) {
		t.Error("flat series reported as growing")
	}
	burst := []float64{1, 1, 1, 1, 1, 1, 1, 50, 1}
	if growing(burst, 0.5) {
		t.Error("one late sample reported as growth")
	}
	ramp := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !growing(ramp, 0.5) {
		t.Error("ramp not reported as growing")
	}
	if growing(ramp[:5], 0) {
		t.Error("too short a series cannot show growth")
	}
}

func TestScoreEpisodes(t *testing.T) {
	stft := synthbench.FleetSTFT()
	t0 := time.Unix(0, 0)
	d := &fleetDevice{name: "d"}
	for i := 0; i < 2*fleetPeriod; i++ {
		d.due = append(d.due, t0.Add(time.Duration(i)*fleetInterval))
	}
	hop := stft.HopSize
	episodeWindow := func(k, offset int) int { return ((fleetWarmup+k*fleetPeriod)*fleetFrame)/hop + offset }
	d.reports = []arrival{
		{at: t0.Add(7 * time.Millisecond), window: episodeWindow(0, 5)},
		{at: t0.Add(9 * time.Millisecond), window: episodeWindow(0, 9)},                    // same episode: not extra
		{at: t0.Add(40 * time.Millisecond), window: episodeWindow(0, 3*fleetFrame/hop+40)}, // clean stretch: extra
		{at: t0.Add(16*fleetInterval + 6*time.Millisecond), window: episodeWindow(1, 4)},
	}
	out := &outcome{}
	lat, attempted := scoreEpisodes(d, stft, out)
	if attempted != 2 || len(lat) != 2 || lat[0] != 7 || lat[1] != 6 {
		t.Fatalf("latencies %v over %d episodes", lat, attempted)
	}
	if len(out.failures) != 1 {
		t.Fatalf("failures %q, want one extra report", out.failures)
	}
	d.reports = d.reports[:1]
	out = &outcome{}
	scoreEpisodes(d, stft, out)
	if len(out.failures) != 1 {
		t.Fatalf("failures %q, want episode 1 missed", out.failures)
	}
}

// TestMetricNamesDeclared checks that every metric the benchmark can
// print is declared in BENCHMARK.json with the same unit, and the
// reverse, and that every declared workload exists.
func TestMetricNamesDeclared(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		declared[m.Name] = m.Unit
	}
	printed := map[string]string{}
	for _, m := range endToEnd {
		printed[m.name] = m.unit
	}
	for _, m := range perLayer {
		printed[m.name] = m.unit
	}
	for name, unit := range printed {
		if u, ok := declared[name]; !ok || u != unit {
			t.Errorf("printed metric %s (%s) declared as %q (declared: %v)", name, unit, u, ok)
		}
	}
	for name := range declared {
		if _, ok := printed[name]; !ok {
			t.Errorf("declared metric %s is never printed", name)
		}
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		wl, err := findWorkload(w.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		for _, l := range wl.layers {
			if _, ok := printed[l]; !ok {
				t.Errorf("%s exercises undeclared layer metric %s", w.Name, l)
			}
		}
	}
	if len(names) < 2 {
		t.Errorf("BENCHMARK.json declares workloads %v, want at least two", names)
	}
	// One result line per pass: untraced prints every end-to-end metric.
	res := endToEndMetrics(&outcome{latencyMs: []float64{1}, windows: 1, phase: &phase{cpu: 1, heap: []float64{1}}, setupSec: 1})
	for name := range res {
		if _, ok := declared[name]; !ok {
			t.Errorf("result metric %s undeclared", name)
		}
	}
}

// TestFleetSourceCleanStretchesAreContinuous checks the device stream
// layout: each period opens with fleetEpisode anomalous frames, and the
// clean frames after them continue the clean capture without a jump, so
// the only phase discontinuities sit at episode edges.
func TestFleetSourceCleanStretchesAreContinuous(t *testing.T) {
	src := newFleetSource(1234)
	index := func(f []float64, frames [][]float64) int {
		for j := range frames {
			if &frames[j][0] == &f[0] {
				return j
			}
		}
		return -1
	}
	prev := -1
	for g := 0; g < fleetWarmup+3*len(src.clean); g++ {
		f, enc := src.frame(g)
		if len(f) != fleetFrame || len(enc) != 8*fleetFrame {
			t.Fatalf("frame %d: %d samples, %d bytes", g, len(f), len(enc))
		}
		q := (g - fleetWarmup) % fleetPeriod
		anomalous := g >= fleetWarmup && q < fleetEpisode
		if j := index(f, src.anom); anomalous != (j >= 0) {
			t.Fatalf("frame %d: anomalous %v but found at anomalous index %d", g, anomalous, j)
		}
		if anomalous {
			continue
		}
		j := index(f, src.clean)
		if prev >= 0 && j != (prev+1)%len(src.clean) {
			t.Fatalf("frame %d: clean frame %d follows clean frame %d", g, j, prev)
		}
		if j == 0 && g > 0 && q != fleetEpisode {
			t.Fatalf("frame %d: clean capture wraps inside a clean stretch", g)
		}
		prev = j
	}
}

// TestResidentBytesLeavesInputOutOfHeap checks that residentBytes
// measures what a build keeps live, and that heapPeak subtracts it.
func TestResidentBytesLeavesInputOutOfHeap(t *testing.T) {
	const n = 1 << 20 // 8 MiB of float64
	got := residentBytes(func() any { return make([]float64, n) })
	if want := uint64(8 * n); got < want-want/8 || got > want+want/8 {
		t.Fatalf("residentBytes = %d, want about %d", got, want)
	}
	p := &phase{heap: []float64{10e6, 12e6}, input: 4e6}
	if peak := p.heapPeak(); peak != 8e6 {
		t.Fatalf("heapPeak = %g, want 8e6", peak)
	}
}
