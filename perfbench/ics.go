package main

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"eddie/internal/cfg"
	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/impair"
	"eddie/internal/mibench"
	"eddie/internal/obs"
	"eddie/internal/par"
	"eddie/internal/pipeline"
	"eddie/internal/stream"
)

// ics_longlived: two in-process streaming detectors, one goroutine
// each, watch a PLC scan-cycle workload (icsduty) through an impaired
// EM channel for the whole run. Denoising and reference adaptation are
// on. Chunks arrive open loop at a fixed rate; latency runs from a
// chunk's due time until Feed returns, with Feed's share taken as its
// thread CPU time (see the measured phase).
const (
	icsSessions  = 2
	icsTrainRuns = 6
	icsCaptures  = 12 // enough distinct captures that a seed's mix is typical
	icsChunk     = 2048
	icsInterval  = 10 * time.Millisecond
	icsWarmup    = 16 // chunks fed before timing starts
	icsSNRdB     = 20
	icsSkewPPM   = 200
	icsGainDrift = 1e-5
	// icsSetupReps is lower than setupReps: one repetition simulates
	// icsTrainRuns+icsCaptures runs.
	icsSetupReps = 3
)

var icsDenoise = dsp.DenoiseConfig{Rank: 3, Block: 32, Stride: 8}

var icsLayers = []string{
	"gen.lateness_p50_ms", "gen.lateness_max_ms",
	"stream.feed_us_per_window", "dsp.fft_us_per_window", "dsp.peaks_us_per_window",
	"dsp.denoise_us_per_window", "dsp.denoise_refactors_per_kwindow",
	"dsp.stft_ms_per_run", "dsp.stft_alloc_mb_per_run",
	"core.decide_us_per_window", "core.ks_tests_per_window",
	"core.region_switches_per_kwindow", "core.adapt_admit_ratio", "core.train_ms",
	"sim.simulate_ms_per_run", "emsim.channel_ms_per_run", "pipeline.reduce_ms_per_run",
	"par.busy_share",
}

func icsPipeline() pipeline.Config {
	c := pipeline.DefaultConfig()
	c.Denoise = icsDenoise
	return c
}

func icsStreamConfig(c pipeline.Config) stream.Config {
	mc := core.DefaultMonitorConfig()
	mc.Adapt = core.AdaptConfig{Enabled: true}
	return stream.Config{
		STFT:              c.STFT,
		Peaks:             c.Peaks,
		Denoise:           c.Denoise,
		Monitor:           mc,
		MaxHistoryWindows: 4096,
	}
}

// icsSetup is everything one setup repetition produces.
type icsSetup struct {
	model *core.Model
	// captures are the impaired EM captures, stored at the 24-bit
	// precision of a receiver ADC so the input does not dominate the
	// heap.
	captures [][]float32
}

// setupICS trains the model and collects and impairs the captures.
func setupICS(c pipeline.Config, seed int64, log *spanLog) (*icsSetup, error) {
	w, err := mibench.ByName("icsduty")
	if err != nil {
		return nil, err
	}
	model, machine, err := trainPipelineModel(w, c, icsTrainRuns, log)
	if err != nil {
		return nil, err
	}
	base := int(seedBase(seed))
	runs := make([]*pipeline.Run, icsCaptures)
	err = poolDo(log, icsCaptures, func(i int) error {
		r, err := pipeline.CollectRun(w, machine, c, base+i, nil)
		runs[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	s := &icsSetup{model: model}
	for i, r := range runs {
		chain := impair.NewChain(
			&impair.GainDrift{Std: icsGainDrift, Seed: int64(base + i)},
			&impair.ClockSkew{PPM: icsSkewPPM},
			&impair.AWGN{SNRdB: icsSNRdB, Seed: int64(base + i)},
		)
		var out []float64
		log.timed(0, "impair.apply", func() { out = impair.Apply(chain, r.Signal) })
		c32 := make([]float32, len(out))
		for j, v := range out {
			c32[j] = float32(v)
		}
		s.captures = append(s.captures, c32)
	}
	return s, nil
}

// cloneCaptures returns a deep copy of the captures.
func cloneCaptures(captures [][]float32) [][]float32 {
	out := make([][]float32, len(captures))
	for i, c := range captures {
		out[i] = append([]float32(nil), c...)
	}
	return out
}

// icsCursor walks one session's endless stream: the captures back to
// back, starting at a per-session offset.
type icsCursor struct {
	captures [][]float32
	cap, pos int
	buf      []float64
}

// next returns the next n samples (valid until the following call).
func (c *icsCursor) next(n int) []float64 {
	c.buf = c.buf[:0]
	for len(c.buf) < n {
		cur := c.captures[c.cap%len(c.captures)]
		take := min(n-len(c.buf), len(cur)-c.pos)
		for _, v := range cur[c.pos : c.pos+take] {
			c.buf = append(c.buf, float64(v))
		}
		c.pos += take
		if c.pos == len(cur) {
			c.cap++
			c.pos = 0
		}
	}
	return c.buf
}

func runICSLongLived(opt options) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	var log *spanLog
	if opt.traced {
		log = newSpanLog()
		out.spans = log
	}
	log.lane(0, "setup")
	c := icsPipeline()
	pipeRec, pipeOrigin := tracedRecorder(opt.traced)
	c.Trace = pipeRec

	// Setup, repeated: train, collect the captures, impair them.
	var setup *icsSetup
	var setupSecs []float64
	for rep := 0; rep < icsSetupReps; rep++ {
		t0 := time.Now()
		s, err := setupICS(c, opt.seed, log)
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		out.attempted++
		if setup != nil && (!reflect.DeepEqual(setup.model, s.model) || !reflect.DeepEqual(setup.captures, s.captures)) {
			out.fail("setup repetition %d produced a different model or capture", rep)
		}
		setup = s
	}
	scfg := icsStreamConfig(c)
	var stats *countingStats
	if opt.traced {
		stats = &countingStats{}
		scfg.Monitor.Stats = stats
	}

	// Warm-up (timed as setup): every session feeds icsWarmup chunks,
	// filling the FFT plan cache, the denoiser's block and the first
	// region lock.
	t0 := time.Now()
	type session struct {
		det      *stream.Detector
		cur      *icsCursor
		rec      *obs.Recorder
		origin   time.Time
		reports  []int
		lat      []float64
		wall     []float64 // due time until Feed returns, wall clock
		lateness []float64
		warmWin  int
		chunks   int
	}
	sessions := make([]*session, icsSessions)
	for i := range sessions {
		sc := scfg
		s := &session{cur: &icsCursor{captures: setup.captures, cap: i * icsCaptures / icsSessions}}
		s.rec, s.origin = tracedRecorder(opt.traced)
		sc.Trace = s.rec
		det, err := stream.NewDetector(setup.model, sc)
		if err != nil {
			return nil, err
		}
		s.det = det
		for k := 0; k < icsWarmup; k++ {
			var reps []core.Report
			x := s.cur.next(icsChunk)
			log.timed(1+i, "stream.feed", func() { reps = det.Feed(x) })
			for _, r := range reps {
				s.reports = append(s.reports, r.Window)
			}
			s.chunks++
		}
		s.warmWin = det.Windows()
		sessions[i] = s
	}
	out.setupSec = median(setupSecs) + time.Since(t0).Seconds()

	// The captures are the benchmark's input, not the program's memory:
	// their resident size (the heap a copy of them takes) is left out of
	// the phase's heap figure.
	input := residentBytes(func() any { return cloneCaptures(setup.captures) })

	// Measured phase.
	ph := startPhase(input)
	start := time.Now()
	end := start.Add(time.Duration(opt.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			// Thread CPU time measures this goroutine only while it
			// owns its thread.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			lane := 1 + i
			log.lane(lane, fmt.Sprintf("session %d", i))
			p := pacer{start: start.Add(time.Duration(i) * icsInterval / icsSessions), interval: icsInterval}
			for k := 0; ; k++ {
				due := p.due(k)
				if !due.Before(end) {
					return
				}
				p.wait(k)
				late := time.Since(due)
				x := s.cur.next(icsChunk)
				t, c := time.Now(), threadCPU()
				reps := s.det.Feed(x)
				cpu, done := threadCPU()-c, time.Now()
				log.add(lane, "stream.feed", t, done)
				s.chunks++
				s.lateness = append(s.lateness, ms(late))
				// Feed neither blocks nor waits, so on a quiet host its
				// wall time is its CPU time. Wall time also stretches by
				// whatever the hypervisor steals from the vCPU, which on
				// a shared host moved the median by more than half between
				// runs of the same code; thread CPU time leaves steal out.
				s.lat = append(s.lat, ms(late+cpu))
				s.wall = append(s.wall, ms(late+done.Sub(t)))
				for _, r := range reps {
					s.reports = append(s.reports, r.Window)
				}
			}
		}(i, s)
	}
	wg.Wait()
	ph.stop()
	out.phase = ph

	var lateness, wall []float64
	var refactors, adaptUpdates, allWindows int64
	for i, s := range sessions {
		allWindows += int64(s.det.Windows())
		if growing(s.lateness, ms(lateSlack*icsInterval)) {
			return nil, fmt.Errorf("invalid run: session %d: generator lateness grew across the measured phase", i)
		}
		out.windows += int64(s.det.Windows() - s.warmWin)
		out.latencyMs = append(out.latencyMs, s.lat...)
		lateness = append(lateness, s.lateness...)
		wall = append(wall, s.wall...)
		out.attempted += int64(len(s.lat))
		if dn := s.det.Denoiser(); dn != nil {
			refactors += dn.Refactors()
		}
		adaptUpdates += s.det.Monitor().AdaptUpdates()
	}

	// Correctness: the chunked sessions must match the same detector
	// fed each session's whole stream in one call.
	refCfg := icsStreamConfig(c)
	mismatch := make([]string, icsSessions)
	err := poolDo(nil, icsSessions, func(i int) error {
		s := sessions[i]
		cur := &icsCursor{captures: setup.captures, cap: i * icsCaptures / icsSessions}
		whole := append([]float64(nil), cur.next(s.chunks*icsChunk)...)
		ref, err := stream.NewDetector(setup.model, refCfg)
		if err != nil {
			return err
		}
		var want []int
		for _, r := range ref.Feed(whole) {
			want = append(want, r.Window)
		}
		if !reflect.DeepEqual(want, s.reports) || ref.Windows() != s.det.Windows() {
			mismatch[i] = fmt.Sprintf("session %d: chunked reports %v over %d windows, one-call reference %v over %d windows",
				i, clip(s.reports), s.det.Windows(), clip(want), ref.Windows())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, m := range mismatch {
		out.attempted++
		if m != "" {
			out.fail("%s", m)
		}
	}

	reports := 0
	for _, s := range sessions {
		reports += len(s.reports)
	}
	out.notes = append(out.notes,
		fmt.Sprintf("setup: median %.4f s of %v, warm-up %.4f s", median(setupSecs), setupSecs, out.setupSec-median(setupSecs)),
		fmt.Sprintf("generator: lateness p50 %.3f ms max %.3f ms; wall-clock latency p50 %.3f ms", median(lateness), percentile(lateness, 100), median(wall)),
		fmt.Sprintf("detector: %d reports, %d denoise refactors, %d adapt updates", reports, refactors, adaptUpdates))

	if opt.traced {
		for i, s := range sessions {
			if err := log.importRecorder(s.rec, s.origin, 1+i, false, "det."); err != nil {
				return nil, err
			}
		}
		if err := log.importRecorder(pipeRec, pipeOrigin, 100, true, "pipe."); err != nil {
			return nil, err
		}
		t := log.times()
		fillStageLayers(out.layers, t, allWindows)
		out.layers["stream.feed_us_per_window"] = perWindowUs(t, "stream.feed", false, allWindows)
		if w := stats.windows.Load(); w > 0 {
			out.layers["core.ks_tests_per_window"] = float64(stats.ksTests.Load()) / float64(w)
			out.layers["core.region_switches_per_kwindow"] = 1000 * float64(stats.switches.Load()) / float64(w)
		}
		fillPipelineLayers(out.layers, t)
		out.layers["gen.lateness_p50_ms"] = median(lateness)
		out.layers["gen.lateness_max_ms"] = percentile(lateness, 100)
		out.layers["dsp.denoise_refactors_per_kwindow"] = 1000 * float64(refactors) / float64(allWindows)
		if cl := stats.clean.Load(); cl > 0 {
			out.layers["core.adapt_admit_ratio"] = float64(adaptUpdates) / float64(cl)
		}
		first := (&icsCursor{captures: setup.captures[:1]}).next(len(setup.captures[0]))
		out.layers["dsp.stft_alloc_mb_per_run"] = stftAllocMB(first, c.STFT)
	}
	return out, nil
}

// trainPipelineModel is pipeline.Train with a span around each of its
// public steps: build the region machine, collect the training runs on
// the worker pool, train.
func trainPipelineModel(w *mibench.Workload, c pipeline.Config, runs int, log *spanLog) (*core.Model, *cfg.Machine, error) {
	machine, err := cfg.BuildMachine(w.Program)
	if err != nil {
		return nil, nil, err
	}
	var sts [][]core.STS
	log.timed(0, "pipeline.collect_runs", func() { sts, err = pipeline.CollectRuns(w, machine, c, 0, runs, nil) })
	if err != nil {
		return nil, nil, err
	}
	var model *core.Model
	log.timed(0, "core.train", func() { model, err = core.Train(w.Name, machine, sts, core.DefaultTrainConfig()) })
	return model, machine, err
}

// poolDo runs fn(i) for i in [0, n) on the program's worker pool, with a
// "par.pool" span around the call and a "par.task" span per task on the
// lane of the worker slot that ran it.
func poolDo(log *spanLog, n int, fn func(i int) error) error {
	if log == nil {
		return par.Do(n, 0, fn)
	}
	workers := par.Parallelism()
	slots := make(chan int, workers)
	for i := 0; i < workers; i++ {
		slots <- i
		log.lane(poolLane+i, fmt.Sprintf("worker %d", i))
	}
	t0 := time.Now()
	err := par.Do(n, 0, func(i int) error {
		slot := <-slots
		defer func() { slots <- slot }()
		t := time.Now()
		err := fn(i)
		log.add(poolLane+slot, "par.task", t, time.Now())
		return err
	})
	log.add(0, "par.pool", t0, time.Now())
	return err
}

// poolLane is the first lane of the worker slots.
const poolLane = 50

// fillPipelineLayers derives the offline layers from the pipeline's
// per-run spans (imported with the "pipe." prefix), the training spans
// and the pool spans.
func fillPipelineLayers(l map[string]float64, t map[string]*layerTime) {
	l["sim.simulate_ms_per_run"] = perRunMs(t, "pipe.simulate")
	l["emsim.channel_ms_per_run"] = perRunMs(t, "pipe.em_channel")
	l["dsp.stft_ms_per_run"] = perRunMs(t, "pipe.stft")
	if sim := t["pipe.simulate"]; sim != nil && sim.count > 0 {
		var reduce int64
		for _, stage := range []string{"pipe.detrend", "pipe.stft", "pipe.denoise", "pipe.extract_sts"} {
			if lt := t[stage]; lt != nil {
				reduce += lt.totalNs
			}
		}
		l["pipeline.reduce_ms_per_run"] = float64(reduce) / 1e6 / float64(sim.count)
	}
	l["core.train_ms"] = perRunMs(t, "core.train")
	if pool, task := t["par.pool"], t["par.task"]; pool != nil && task != nil && pool.totalNs > 0 {
		l["par.busy_share"] = float64(task.totalNs) / (float64(par.Parallelism()) * float64(pool.totalNs))
	}
}

// stftAllocMB is the heap allocated by one whole-signal dsp.STFT call,
// in MB.
func stftAllocMB(signal []float64, stft dsp.STFTConfig) float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	detrended := dsp.Detrend(signal)
	metrics.Read(s)
	before := s[0].Value.Uint64()
	if _, err := dsp.STFT(detrended, stft); err != nil {
		return 0
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-before) / (1 << 20)
}

// countingStats is a core.MonitorStats hook that counts decisions. It
// may be shared by monitors on several goroutines.
type countingStats struct {
	ksTests, windows, clean, switches atomic.Int64
}

func (c *countingStats) KSTest(cfg.RegionID, float64, bool) { c.ksTests.Add(1) }
func (c *countingStats) WindowObserved(_ cfg.RegionID, rejected, _ bool) {
	c.windows.Add(1)
	if !rejected {
		c.clean.Add(1)
	}
}
func (c *countingStats) ReportFired(int)                {}
func (c *countingStats) RegionSwitch(_, _ cfg.RegionID) { c.switches.Add(1) }
