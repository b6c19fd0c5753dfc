package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"time"

	"eddie/internal/coord"
	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/fleet"
	"eddie/internal/metrics"
	"eddie/internal/obs"
	"eddie/internal/par"
	"eddie/internal/stream"
	"eddie/internal/synthbench"
	"eddie/internal/trace"
)

// fleet_stream: two long-lived devices say hello to a consistent-hash
// coordinator, follow its redirect to one of two sharded fleet backends
// and stream 2048-sample frames open loop. Every period of fleetPeriod
// frames starts with a short anomalous episode (the synthetic capture
// shifted by 5%); its latency runs from the due time of the episode's
// first frame to the arrival of the report frame.
const (
	fleetFrame       = 2048                 // samples per frame
	fleetPeriod      = 16                   // frames per episode period
	fleetEpisode     = 3                    // anomalous frames opening each period
	fleetCleanBlocks = 12                   // clean buffer length, in clean stretches
	fleetAnomBlocks  = 4                    // anomalous buffer length, in episodes
	fleetInterval    = 5 * time.Millisecond // per-device frame interval
	fleetDevices     = 2
	fleetBackends    = 2
	fleetTrainRuns   = 4
	fleetTrainLen    = 200_000 // samples per training capture
	fleetShift       = 1.05
	// fleetTailWindows is how long after an episode's last anomalous
	// sample a report still belongs to it.
	fleetTailWindows = 32
	// setupReps is how often a workload repeats its training; setup_s
	// reports the median.
	setupReps = 5
)

var fleetLayers = []string{
	"fleet.verdict_p50_us", "fleet.turn_p50_us", "fleet.queue_depth_p50",
	"fleet.backpressure_stalls", "fleet.wire_bytes_per_window", "fleet.welcome_ms",
	"coord.redirect_ms", "obs.journal_bytes_per_alarm",
	"gen.lateness_p50_ms", "gen.lateness_max_ms",
	"stream.feed_us_per_window", "dsp.fft_us_per_window", "dsp.peaks_us_per_window",
	"dsp.stft_ms_per_run", "core.decide_us_per_window", "core.ks_tests_per_window",
	"core.region_switches_per_kwindow", "core.train_ms",
}

func fleetPeaks() dsp.PeakConfig {
	p := dsp.DefaultPeakConfig()
	p.MinEnergyFraction = 0.02
	p.MinBin = 3
	return p
}

// trainFleetModel trains the single-region synthetic model the way
// synthbench.TrainSignalModel does, with a span around each public
// call: detrend and STFT per capture, STS extraction, core.Train.
func trainFleetModel(log *spanLog, lane int) (*core.Model, error) {
	stft := synthbench.FleetSTFT()
	peaks := fleetPeaks()
	m, err := synthbench.Machine(1)
	if err != nil {
		return nil, err
	}
	region := m.LoopRegionOf(0)
	runs := make([][]core.STS, fleetTrainRuns)
	for i := range runs {
		sig := synthbench.Signal(fleetTrainLen, stft, int64(i+1), 1)
		var frames []dsp.Frame
		log.timed(lane, "dsp.stft", func() { frames, err = dsp.STFT(dsp.Detrend(sig), stft) })
		if err != nil {
			return nil, err
		}
		labeled := make([]trace.LabeledFrame, len(frames))
		for j := range frames {
			labeled[j] = trace.LabeledFrame{Frame: frames[j], Region: region, TimeSec: float64(frames[j].Start) / stft.SampleRate}
		}
		log.timed(lane, "core.extract_sts", func() { runs[i] = core.ExtractSTS(labeled, stft, peaks) })
	}
	var model *core.Model
	log.timed(lane, "core.train", func() { model, err = core.Train("synthfleet", m, runs, core.DefaultTrainConfig()) })
	return model, err
}

// fleetSource holds one device's pre-encoded frames. Clean frames come
// from one long capture and anomalous frames from another; the clean
// buffer wraps only where an episode starts, so every clean stretch is
// phase-continuous.
type fleetSource struct {
	clean, anom       [][]float64
	cleanEnc, anomEnc [][]byte
}

func newFleetSource(seed int64) *fleetSource {
	stft := synthbench.FleetSTFT()
	nClean := (fleetPeriod - fleetEpisode) * fleetCleanBlocks
	nAnom := fleetEpisode * fleetAnomBlocks
	clean := synthbench.Signal(nClean*fleetFrame, stft, seed, 1)
	anom := synthbench.Signal(nAnom*fleetFrame, stft, seed+1, fleetShift)
	src := &fleetSource{}
	for i := 0; i < nClean; i++ {
		f := clean[i*fleetFrame : (i+1)*fleetFrame]
		src.clean = append(src.clean, f)
		src.cleanEnc = append(src.cleanEnc, fleet.EncodeSamples(f))
	}
	for i := 0; i < nAnom; i++ {
		f := anom[i*fleetFrame : (i+1)*fleetFrame]
		src.anom = append(src.anom, f)
		src.anomEnc = append(src.anomEnc, fleet.EncodeSamples(f))
	}
	return src
}

// fleetWarmup is the number of clean frames sent before timing starts:
// one clean stretch, so the first timed frame opens an episode.
const fleetWarmup = fleetPeriod - fleetEpisode

// frame returns global frame g of the device's stream (warm-up frames
// first, then measured frame i = g - fleetWarmup).
func (s *fleetSource) frame(g int) (samples []float64, enc []byte) {
	if g < fleetWarmup {
		return s.clean[g], s.cleanEnc[g]
	}
	i := g - fleetWarmup
	k, q := i/fleetPeriod, i%fleetPeriod
	if q < fleetEpisode {
		j := (k*fleetEpisode + q) % len(s.anom)
		return s.anom[j], s.anomEnc[j]
	}
	j := (fleetWarmup + k*(fleetPeriod-fleetEpisode) + q - fleetEpisode) % len(s.clean)
	return s.clean[j], s.cleanEnc[j]
}

// arrival is one report frame as the device saw it.
type arrival struct {
	at     time.Time
	window int
}

// fleetDevice is one device connection and what it observed.
type fleetDevice struct {
	name      string
	src       *fleetSource
	conn      net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	redirect  time.Duration
	welcome   time.Duration
	sent      int         // frames written so far (warm-up included)
	due       []time.Time // due time of each measured frame
	lateness  []float64   // ms, per measured frame
	reports   []arrival
	summary   fleet.Summary
	wireBytes int64 // bytes written and read in the measured phase
	readErr   chan error
	mu        sync.Mutex
}

// handshake dials the coordinator, follows its redirect and says hello
// to the owning backend.
func (d *fleetDevice) handshake(coordAddr string) error {
	hello, err := json.Marshal(fleet.Hello{Device: d.name, Workload: "synthfleet", Proto: fleet.ProtoRedirect})
	if err != nil {
		return err
	}
	addr := coordAddr
	for hop := 0; ; hop++ {
		t0 := time.Now()
		conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			return err
		}
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		br := bufio.NewReaderSize(conn, 1<<16)
		bw := bufio.NewWriterSize(conn, 1<<16)
		err = fleet.WriteFrame(bw, fleet.FrameHello, hello)
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			conn.Close()
			return fmt.Errorf("hello: %w", err)
		}
		typ, payload, err := fleet.ReadFrame(br, fleet.DefaultMaxFrameBytes)
		if err != nil {
			conn.Close()
			return fmt.Errorf("handshake: %w", err)
		}
		switch {
		case typ == fleet.FrameRedirect && hop == 0:
			d.redirect = time.Since(t0)
			conn.Close()
			var rd fleet.Redirect
			if err := json.Unmarshal(payload, &rd); err != nil {
				return fmt.Errorf("redirect: %w", err)
			}
			addr = rd.Addr
		case typ == fleet.FrameWelcome:
			d.welcome = time.Since(t0)
			conn.SetDeadline(time.Time{})
			d.conn, d.br, d.bw = conn, br, bw
			return nil
		default:
			conn.Close()
			return fmt.Errorf("handshake: frame 0x%02x %q", typ, payload)
		}
	}
}

// readLoop records every report frame until the summary arrives.
func (d *fleetDevice) readLoop() {
	for {
		typ, payload, err := fleet.ReadFrame(d.br, fleet.DefaultMaxFrameBytes)
		now := time.Now()
		if err != nil {
			d.readErr <- err
			return
		}
		d.mu.Lock()
		d.wireBytes += int64(5 + len(payload))
		d.mu.Unlock()
		switch typ {
		case fleet.FrameReport:
			var r fleet.Report
			if err := json.Unmarshal(payload, &r); err != nil {
				d.readErr <- err
				return
			}
			d.mu.Lock()
			d.reports = append(d.reports, arrival{at: now, window: r.Window})
			d.mu.Unlock()
		case fleet.FrameSummary:
			err := json.Unmarshal(payload, &d.summary)
			d.readErr <- err
			return
		case fleet.FrameError:
			d.readErr <- fmt.Errorf("server error: %s", payload)
			return
		}
	}
}

// send writes the device's next frame.
func (d *fleetDevice) send() error {
	_, enc := d.src.frame(d.sent)
	if err := fleet.WriteFrame(d.bw, fleet.FrameSamples, enc); err != nil {
		return err
	}
	d.sent++
	return d.bw.Flush()
}

// fleetBench is the running topology.
type fleetBench struct {
	dir      string
	servers  []*fleet.Server
	journals []*obs.Journal
	serveErr []chan error
	coord    *coord.Coordinator
	coordErr chan error
	coordLn  net.Listener
}

func (b *fleetBench) close() {
	if b.coord != nil {
		b.coord.Close()
		<-b.coordErr
	}
	for i, s := range b.servers {
		s.Close()
		<-b.serveErr[i]
	}
	for _, j := range b.journals {
		j.Close()
	}
	os.RemoveAll(b.dir)
}

// sessionInfo sums the windows the backends have decided over all
// sessions, and the samples queued in the active sessions' inboxes.
func (b *fleetBench) sessionInfo() (windows int, queued int) {
	for _, s := range b.servers {
		for _, si := range s.Sessions() {
			windows += si.Windows
			if si.Active {
				queued += si.QueueDepth
			}
		}
	}
	return windows, queued
}

func runFleetStream(opt options) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	var log *spanLog
	if opt.traced {
		log = newSpanLog()
		out.spans = log
	}
	const setupLane = 0
	log.lane(setupLane, "setup")

	// Inputs are generated before the setup clock starts: they are the
	// benchmark's work, not the program's. They stay live through the
	// measured phase, so their resident size is left out of its heap.
	base := seedBase(opt.seed)
	sources := make([]*fleetSource, fleetDevices)
	input := residentBytes(func() any {
		for i := range sources {
			sources[i] = newFleetSource(base + int64(2*i))
		}
		return sources
	})

	// Setup: train the model setupReps times (median), then bring the
	// topology up. Waits for probes and for the warm-up to drain are
	// paused out of the setup clock.
	var sw stopwatch
	var model *core.Model
	var trainSecs []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		m, err := trainFleetModel(log, setupLane)
		if err != nil {
			return nil, err
		}
		trainSecs = append(trainSecs, time.Since(t0).Seconds())
		if model != nil && !reflect.DeepEqual(model, m) {
			out.fail("training repetition %d produced a different model", rep)
		}
		model = m
	}
	out.attempted += setupReps + 1
	if ref, _, err := synthbench.TrainSignalModel(fleetTrainRuns, fleetTrainLen, synthbench.FleetSTFT(), fleetPeaks()); err != nil || !reflect.DeepEqual(ref, model) {
		out.fail("benchmark training differs from synthbench.TrainSignalModel (err %v)", err)
	}
	sw.start()
	stft := synthbench.FleetSTFT()
	streamCfg := stream.Config{STFT: stft, Peaks: fleetPeaks(), Monitor: core.DefaultMonitorConfig()}
	// The traced pass records the served detectors' stage spans: every
	// session's detector keeps the template's recorder.
	servedCfg := streamCfg
	var servedOrigin time.Time
	servedCfg.Trace, servedOrigin = tracedRecorder(opt.traced)

	b := &fleetBench{dir: filepath.Join(opt.root, ".bench_build", fmt.Sprintf("perfbench-fleet-%d", os.Getpid()))}
	defer b.close()
	var backendAddrs []string
	for i := 0; i < fleetBackends; i++ {
		j, err := obs.OpenJournal(obs.JournalConfig{Dir: filepath.Join(b.dir, fmt.Sprintf("journal-%d", i)), Fsync: obs.FsyncNever})
		if err != nil {
			return nil, err
		}
		b.journals = append(b.journals, j)
		srv, err := fleet.NewServer(fleet.Config{
			Models:      fleet.StaticModels{"synthfleet": model},
			Stream:      servedCfg,
			MaxSessions: 16,
			Journal:     j,
		})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		b.servers = append(b.servers, srv)
		b.serveErr = append(b.serveErr, done)
		backendAddrs = append(backendAddrs, ln.Addr().String())
	}
	c, err := coord.New(coord.Config{Backends: backendAddrs, ProbeInterval: 100 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	sw.pause()
	if err := c.WaitReady(10 * time.Second); err != nil {
		c.Close()
		return nil, err
	}
	sw.start()
	b.coordLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	b.coord, b.coordErr = c, make(chan error, 1)
	go func() { b.coordErr <- c.Serve(b.coordLn) }()

	devs := make([]*fleetDevice, fleetDevices)
	for i := range devs {
		d := &fleetDevice{
			name:    fmt.Sprintf("dev-%d-%d", base, i),
			src:     sources[i],
			readErr: make(chan error, 1),
		}
		if err := d.handshake(b.coordLn.Addr().String()); err != nil {
			return nil, fmt.Errorf("device %s refused: %w", d.name, err)
		}
		devs[i] = d
		go d.readLoop()
	}
	// Warm-up: one clean stretch per device fills the FFT plan cache,
	// the model arena and the first region lock before timing starts.
	for _, d := range devs {
		for d.sent < fleetWarmup {
			if err := d.send(); err != nil {
				return nil, err
			}
		}
	}
	warmWindows := fleetDevices * windowsFor(fleetWarmup*fleetFrame, stft)
	sw.pause()
	if err := waitFor(30*time.Second, func() bool { w, _ := b.sessionInfo(); return w >= warmWindows }); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	out.setupSec = median(trainSecs) + sw.seconds()

	// Measured phase: open loop at a fixed frame rate per device, the
	// second device offset by half an interval.
	var backlog []float64
	stopSampling := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-t.C:
				_, q := b.sessionInfo()
				backlog = append(backlog, float64(q))
			}
		}
	}()
	ph := startPhase(input)
	start := time.Now()
	end := start.Add(time.Duration(opt.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	sendErr := make([]error, fleetDevices)
	for i, d := range devs {
		wg.Add(1)
		go func(i int, d *fleetDevice) {
			defer wg.Done()
			p := pacer{start: start.Add(time.Duration(i) * fleetInterval / fleetDevices), interval: fleetInterval}
			lane := 1 + i
			log.lane(lane, "device "+d.name)
			for k := 0; ; k++ {
				due := p.due(k)
				if !due.Before(end) {
					break
				}
				p.wait(k)
				now := time.Now()
				d.due = append(d.due, due)
				d.lateness = append(d.lateness, ms(now.Sub(due)))
				if err := d.send(); err != nil {
					sendErr[i] = err
					d.conn.Close() // ends the read loop too
					return
				}
				log.add(lane, "fleet.send", now, time.Now())
			}
			if err := fleet.WriteFrame(d.bw, fleet.FrameBye, nil); err == nil {
				err = d.bw.Flush()
			}
		}(i, d)
	}
	wg.Wait()
	close(stopSampling)
	samplerWG.Wait()
	for i, d := range devs {
		out.attempted++
		if err := <-d.readErr; sendErr[i] != nil || err != nil {
			out.fail("device %s: session error: send %v, receive %v", d.name, sendErr[i], err)
		}
	}
	ph.stop()
	out.phase = ph

	var measuredFrames int
	var lateness []float64
	var wire int64
	for _, d := range devs {
		measuredFrames += len(d.due)
		lateness = append(lateness, d.lateness...)
		d.mu.Lock()
		wire += d.wireBytes
		d.mu.Unlock()
	}
	wire += int64(measuredFrames) * int64(5+8*fleetFrame)
	out.windows = -int64(warmWindows)
	for _, d := range devs {
		out.windows += int64(d.summary.Windows)
	}
	out.attempted += int64(measuredFrames)

	// Open-loop validity: a generator that fell behind or a backlog
	// that grew means the rate was above what the node sustains, and
	// the latencies would measure the queue, not the program.
	if growing(backlog, 4*fleetFrame) {
		return nil, fmt.Errorf("invalid run: server backlog grew across the measured phase (samples queued: first third vs last third of %d samples)", len(backlog))
	}
	for _, d := range devs {
		if growing(d.lateness, ms(lateSlack*fleetInterval)) {
			return nil, fmt.Errorf("invalid run: device %s: generator lateness grew across the measured phase", d.name)
		}
	}

	// Latency per episode and extra reports; then every device's frames
	// replayed through an in-process detector, one device per worker.
	for _, d := range devs {
		lat, attempted := scoreEpisodes(d, stft, out)
		out.latencyMs = append(out.latencyMs, lat...)
		out.attempted += attempted
	}
	mismatch := make([]string, fleetDevices)
	err = par.Do(fleetDevices, 0, func(i int) error {
		d := devs[i]
		det, err := stream.NewDetector(model, streamCfg)
		if err != nil {
			return err
		}
		var want []int
		for g := 0; g < d.sent; g++ {
			samples, _ := d.src.frame(g)
			for _, r := range det.Feed(samples) {
				want = append(want, r.Window)
			}
		}
		got := make([]int, len(d.reports))
		for j, a := range d.reports {
			got[j] = a.window
		}
		if !reflect.DeepEqual(got, want) || d.summary.Windows != det.Windows() {
			mismatch[i] = fmt.Sprintf("device %s: fleet reports %v over %d windows, in-process detector %v over %d windows",
				d.name, clip(got), d.summary.Windows, clip(want), det.Windows())
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

	out.notes = append(out.notes,
		fmt.Sprintf("setup: train median %.4f s of %v, bring-up %.4f s", median(trainSecs), trainSecs, out.setupSec-median(trainSecs)),
		fmt.Sprintf("generator: %d frames, lateness p50 %.3f ms max %.3f ms", measuredFrames, median(lateness), percentile(lateness, 100)),
		fmt.Sprintf("episodes: %d latency samples, server frame-to-verdict p50 %.3f ms", len(out.latencyMs), registryP50(b, "fleet_frame_to_verdict_ns/")/1e6))

	if opt.traced {
		// Each served detector has a "stream" and a "monitor" track; a
		// lane per track keeps concurrent sessions apart.
		if err := log.importRecorder(servedCfg.Trace, servedOrigin, servedLane, true, "det."); err != nil {
			return nil, err
		}
		t := log.times()
		fillServedLayers(out.layers, t, b)
		fillFleetLayers(out.layers, b, devs, wire, out.windows)
		out.layers["gen.lateness_p50_ms"] = median(lateness)
		out.layers["gen.lateness_max_ms"] = percentile(lateness, 100)
		out.layers["core.train_ms"] = perRunMs(t, "core.train")
		out.layers["dsp.stft_ms_per_run"] = perRunMs(t, "dsp.stft")
	}
	return out, nil
}

// scoreEpisodes attributes each report to the episode whose anomalous
// frames its window overlaps or follows within fleetTailWindows, and
// returns the latency of every complete episode. Episodes without a
// report and reports outside every episode are failures.
func scoreEpisodes(d *fleetDevice, stft dsp.STFTConfig, out *outcome) (lat []float64, attempted int64) {
	hop, win := stft.HopSize, stft.WindowSize
	measured := len(d.due)
	episodes := 0
	if measured >= fleetEpisode {
		episodes = (measured-fleetEpisode)/fleetPeriod + 1
	}
	periodLen := fleetPeriod * fleetFrame
	reach := fleetEpisode*fleetFrame + fleetTailWindows*hop
	first := make([]time.Time, episodes)
	seen := make([]bool, episodes)
	for _, r := range d.reports {
		// last is the window's last sample, counted from the first
		// measured sample.
		last := r.window*hop + win - 1 - fleetWarmup*fleetFrame
		k := last / periodLen
		off := last - k*periodLen
		switch {
		case last < 0 || off-win+1 >= reach:
			out.fail("device %s: report at window %d outside every episode", d.name, r.window)
		case k < episodes && !seen[k]:
			seen[k] = true
			first[k] = r.at

		}
	}
	for k := 0; k < episodes; k++ {
		attempted++
		if !seen[k] {
			out.fail("device %s: episode %d (frames %d..%d) missed", d.name, k, k*fleetPeriod, k*fleetPeriod+fleetEpisode-1)
			continue
		}
		lat = append(lat, ms(first[k].Sub(d.due[k*fleetPeriod])))
	}
	return lat, attempted
}

// fillFleetLayers reads the backends' registries and the device-side
// wire and handshake counts.
func fillFleetLayers(l map[string]float64, b *fleetBench, devs []*fleetDevice, wire, windows int64) {
	var stalls, alarms int64
	for _, s := range b.servers {
		stalls += s.Registry().Counter("fleet_backpressure_stalls").Value()
		alarms += s.Registry().Counter("fleet_reports").Value()
	}
	l["fleet.verdict_p50_us"] = registryP50(b, "fleet_frame_to_verdict_ns/") / 1e3
	l["fleet.turn_p50_us"] = registryP50(b, "fleet_turn_ns/") / 1e3
	l["fleet.queue_depth_p50"] = registryP50(b, "fleet_turn_queue_depth/")
	l["fleet.backpressure_stalls"] = float64(stalls)
	l["fleet.wire_bytes_per_window"] = float64(wire) / float64(windows)
	var redirect, welcome []float64
	for _, d := range devs {
		redirect = append(redirect, ms(d.redirect))
		welcome = append(welcome, ms(d.welcome))
	}
	l["coord.redirect_ms"] = median(redirect)
	l["fleet.welcome_ms"] = median(welcome)
	for _, j := range b.journals {
		_ = j.Sync() // only flushes what the size below should count
	}
	if alarms > 0 {
		l["obs.journal_bytes_per_alarm"] = float64(dirBytes(b.dir)) / float64(alarms)
	}
}

// registryP50 combines the per-shard medians of the backends' log
// histograms named prefix+shard, weighted by sample count.
func registryP50(b *fleetBench, prefix string) float64 {
	var sum float64
	var count int64
	for _, s := range b.servers {
		for name, v := range s.Registry().Snapshot() {
			if h, ok := v.(metrics.LogHistogramSnapshot); ok && strings.HasPrefix(name, prefix) {
				sum += float64(h.P50) * float64(h.Count)
				count += h.Count
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// servedLane is the first lane of the served detectors' tracks.
const servedLane = 200

// fillServedLayers derives the stream, dsp and core layers of the
// served path: the detectors' stage spans and the counters every
// session's detector publishes to its backend's registry, all over the
// windows the backends decided (warm-up included, like the spans).
// stream.feed is the registry's per-window processing time, an
// independent clock around the same stages.
func fillServedLayers(l map[string]float64, t map[string]*layerTime, b *fleetBench) {
	var windows, ks, switches, processNs, processed int64
	for _, s := range b.servers {
		reg := s.Registry()
		windows += reg.Counter("sts_produced").Value()
		ks += reg.Counter("ks_tests").Value()
		switches += reg.Counter("region_switches").Value()
		h := reg.LogHist("window_process_ns")
		processNs += h.Sum()
		processed += h.Count()
	}
	fillStageLayers(l, t, windows)
	if processed > 0 {
		l["stream.feed_us_per_window"] = float64(processNs) / 1e3 / float64(processed)
	}
	if windows > 0 {
		l["core.ks_tests_per_window"] = float64(ks) / float64(windows)
		l["core.region_switches_per_kwindow"] = 1000 * float64(switches) / float64(windows)
	}
}

// fillStageLayers derives the detector stage layers from the
// in-program spans imported with the "det." prefix.
func fillStageLayers(l map[string]float64, t map[string]*layerTime, windows int64) {
	l["dsp.fft_us_per_window"] = perWindowUs(t, "det.stft", false, windows)
	l["dsp.peaks_us_per_window"] = perWindowUs(t, "det.peaks", false, windows)
	l["dsp.denoise_us_per_window"] = perWindowUs(t, "det.denoise", false, windows)
	l["core.decide_us_per_window"] = perWindowUs(t, "det.observe", true, windows)
}

// seedBase maps a workload seed onto a positive base for input seeds
// and names, clear of the small seeds the models are trained on.
func seedBase(seed int64) int64 {
	return 1000 + int64(uint64(seed)%1_000_000)*16
}

// windowsFor is the number of STFT windows n samples complete.
func windowsFor(n int, stft dsp.STFTConfig) int {
	if n < stft.WindowSize {
		return 0
	}
	return (n-stft.WindowSize)/stft.HopSize + 1
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// clip shortens a list for an error message.
func clip(xs []int) []int {
	if len(xs) > 8 {
		return xs[:8]
	}
	return xs
}
