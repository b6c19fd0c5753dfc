// Command perfbench is EDDIE's end-to-end benchmark. It drives one of
// its workloads through the program's public entry points, checks the
// program's outputs, and prints one JSON result line:
//
//	perfbench --workload fleet_stream --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics declared in
// BENCHMARK.json (latency_p50_ms, windows_per_cpu_s, heap_peak_mb,
// setup_s). With --trace 1 the workload runs once untraced and once
// traced; the result carries the per-layer metrics, a line before it
// gives the tracing overhead, and the spans are written as Chrome
// trace-event JSON under .bench_build/.
//
// Run it through perfbench/run.sh from the repository root, which builds
// this module against the checkout's sources.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints. Field order is the
// order the keys appear in.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd are the metrics of an untraced run, with their units.
var endToEnd = []struct{ name, unit string }{
	{"latency_p50_ms", "ms"},
	{"windows_per_cpu_s", "1/cpu_s"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, with their units. Every
// workload reports all of them; a layer the workload does not exercise
// reads 0 and is listed on the "not exercised" line.
var perLayer = []struct{ name, unit string }{
	{"fleet.verdict_p50_us", "us"},
	{"fleet.turn_p50_us", "us"},
	{"fleet.queue_depth_p50", "count"},
	{"fleet.backpressure_stalls", "count"},
	{"fleet.wire_bytes_per_window", "B"},
	{"fleet.welcome_ms", "ms"},
	{"coord.redirect_ms", "ms"},
	{"obs.journal_bytes_per_alarm", "B"},
	{"gen.lateness_p50_ms", "ms"},
	{"gen.lateness_max_ms", "ms"},
	{"stream.feed_us_per_window", "us"},
	{"dsp.fft_us_per_window", "us"},
	{"dsp.peaks_us_per_window", "us"},
	{"dsp.denoise_us_per_window", "us"},
	{"dsp.denoise_refactors_per_kwindow", "count"},
	{"dsp.stft_ms_per_run", "ms"},
	{"dsp.stft_alloc_mb_per_run", "MB"},
	{"core.decide_us_per_window", "us"},
	{"core.ks_tests_per_window", "count"},
	{"core.region_switches_per_kwindow", "count"},
	{"core.adapt_admit_ratio", "ratio"},
	{"core.train_ms", "ms"},
	{"sim.simulate_ms_per_run", "ms"},
	{"emsim.channel_ms_per_run", "ms"},
	{"pipeline.reduce_ms_per_run", "ms"},
	{"par.busy_share", "ratio"},
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	root    string // checkout root: where .bench_build lives
}

// outcome is what one workload run measured.
type outcome struct {
	attempted int64
	failures  []string // one line per failed operation
	latencyMs []float64
	windows   int64  // STFT windows decided in the measured phase
	phase     *phase // CPU time and heap of the measured phase
	setupSec  float64
	layers    map[string]float64 // per-layer values (traced pass only)
	spans     *spanLog           // traced pass only
	notes     []string           // extra provenance lines
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// workload is one benchmark scenario; BENCHMARK.json says why each was
// chosen.
type workload struct {
	name string
	run  func(opt options) (*outcome, error)
	// layers lists the per-layer metrics the workload exercises.
	layers []string
}

var workloads = []workload{
	{name: "fleet_stream", run: runFleetStream, layers: fleetLayers},
	{name: "ics_longlived", run: runICSLongLived, layers: icsLayers},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "fleet_stream", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: untraced then traced pass, per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return errors.New("run from the repository root (no go.mod here)")
	}
	opt := options{seed: *seed, seconds: *seconds, root: root}
	printProvenance(w, opt, *traced == 1)

	base, err := w.run(opt)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	e2e := endToEndMetrics(base)
	printLatencyDetail("untraced", base)
	res := result{
		Correct:   len(base.failures) == 0,
		Attempted: base.attempted,
		Failed:    int64(len(base.failures)),
		Metrics:   e2e,
	}
	if *traced == 1 {
		opt.traced = true
		tr, err := w.run(opt)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", w.name, err)
		}
		printLatencyDetail("traced", tr)
		printOverhead(e2e, endToEndMetrics(tr))
		path := filepath.Join(root, ".bench_build", fmt.Sprintf("perfbench-trace-%s-seed%d.json", w.name, *seed))
		if err := tr.spans.writeChrome(path); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", tr.spans.len(), path)
		res.Correct = res.Correct && len(tr.failures) == 0
		res.Attempted += tr.attempted
		res.Failed += int64(len(tr.failures))
		base.failures = append(base.failures, tr.failures...)
		res.Metrics = layerMetrics(w, tr.layers)
	}
	for _, f := range base.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed the correctness gate", res.Failed, res.Attempted)
	}
	return nil
}

// endToEndMetrics turns an outcome into the end-to-end metric set.
func endToEndMetrics(o *outcome) map[string]metric {
	vals := map[string]float64{
		"latency_p50_ms":    median(o.latencyMs),
		"windows_per_cpu_s": float64(o.windows) / o.phase.cpu,
		"heap_peak_mb":      o.phase.heapPeak() / (1 << 20),
		"setup_s":           o.setupSec,
	}
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// layerMetrics fills every declared per-layer metric; those the
// workload does not exercise read 0 and are listed.
func layerMetrics(w *workload, vals map[string]float64) map[string]metric {
	out := map[string]metric{}
	var idle []string
	exercised := map[string]bool{}
	for _, n := range w.layers {
		exercised[n] = true
	}
	for _, m := range perLayer {
		v := 0.0
		if exercised[m.name] {
			v = vals[m.name]
		} else {
			idle = append(idle, m.name)
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	if len(idle) > 0 {
		fmt.Printf("not exercised on %s (reported as 0): %s\n", w.name, strings.Join(idle, " "))
	}
	return out
}

// printLatencyDetail prints the latency median with the highest
// percentile that still has ten samples beyond it, and the sample
// count. The tail is informational: it does not repeat closely enough
// on a shared host to be gated.
func printLatencyDetail(label string, o *outcome) {
	p, v, n := tailPercentile(o.latencyMs, 10)
	fmt.Printf("latency %s: p50 %.4f ms, p%g %.4f ms, n=%d; windows %d, setup %.4f s\n",
		label, median(o.latencyMs), p, v, n, o.windows, o.setupSec)
	fmt.Printf("  %s\n", o.phase.note())
	for _, note := range o.notes {
		fmt.Printf("  %s\n", note)
	}
}

// printOverhead prints the traced-vs-untraced delta of each end-to-end
// metric.
func printOverhead(untraced, traced map[string]metric) {
	var parts []string
	for _, m := range endToEnd {
		u, t := untraced[m.name].Value, traced[m.name].Value
		parts = append(parts, fmt.Sprintf("%s %+.1f%% (%.4g -> %.4g)", m.name, 100*(t-u)/u, u, t))
	}
	fmt.Printf("tracing overhead: %s\n", strings.Join(parts, ", "))
}

// printProvenance prints the host, toolchain and settings of the run.
func printProvenance(w *workload, opt options, traced bool) {
	prov := map[string]any{
		"workload":   w.name,
		"seed":       opt.seed,
		"seconds":    opt.seconds,
		"trace":      traced,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(opt.root),
	}
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(line))
}
