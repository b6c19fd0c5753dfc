package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"eddie/internal/core"
	"eddie/internal/synthbench"
)

// observeRegressionLimit is the accepted slowdown of the steady-state
// Observe benchmark against the checked-in BENCH_decision.json before
// the run fails (and leaves the baseline file untouched).
const observeRegressionLimit = 1.20

// runDecisionBench times the monitor decision path and the training
// fan-out on the synthetic multi-region benchmark model and writes
// BENCH_decision.json (same schema as BENCH_dsp.json). The *Legacy
// benchmarks run the pre-optimization copy-and-sort kernel that is kept
// for differential testing, so the file carries its own before/after
// comparison: ObserveMultiModeLegacy / ObserveMultiMode is the
// multi-mode decision speedup, TrainWorkersN the training scaling
// (flat when GOMAXPROCS=1; the file records gomaxprocs alongside).
func runDecisionBench(path string) error {
	const (
		nests     = 12
		trainRuns = 16
		windows   = 30
		peaks     = 5
	)
	machine, err := synthbench.Machine(nests)
	if err != nil {
		return err
	}
	runs := synthbench.TrainingRuns(machine, nests, trainRuns, windows, peaks)
	model, err := core.Train("synthbench", machine, runs, core.DefaultTrainConfig())
	if err != nil {
		return err
	}
	clean := synthbench.Stream(machine, 2000, peaks, 1)
	anomalous := synthbench.Stream(machine, 2000, peaks, 1.05)

	observe := func(stream []core.STS, scale float64, legacy bool) func(b *testing.B) {
		return func(b *testing.B) {
			mcfg := core.DefaultMonitorConfig()
			mcfg.GroupSizeScale = scale
			mcfg.LegacySort = legacy
			mon, err := core.NewMonitor(model, mcfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := range stream {
				mon.Observe(&stream[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mon.Observe(&stream[i%len(stream)])
			}
		}
	}
	train := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			tc := core.DefaultTrainConfig()
			tc.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Train("synthbench", machine, runs, tc); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	type bench struct {
		name string
		n    int
		fn   func(b *testing.B)
	}
	benches := []bench{
		// Steady accept path (the fleet server's common case). The
		// regression gate below anchors on "Observe".
		{"Observe", nests, observe(clean, 0, false)},
		{"ObserveLegacy", nests, observe(clean, 0, true)},
		// Multi-mode/multi-region worst case: groups 5% off all 16
		// modes, scale 8 puts the group size at the paper's maximum 96.
		{"ObserveMultiMode", nests, observe(anomalous, 8, false)},
		{"ObserveMultiModeLegacy", nests, observe(anomalous, 8, true)},
		{"TrainWorkers1", nests, train(1)},
		{"TrainWorkers2", nests, train(2)},
		{"TrainWorkers4", nests, train(4)},
	}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		benches = append(benches, bench{fmt.Sprintf("TrainWorkers%d", p), nests, train(p)})
	}

	out := newBenchFile()
	ns := map[string]float64{}
	for _, bm := range benches {
		r := testing.Benchmark(bm.fn)
		res := dspBenchResult{
			Name:        bm.name,
			N:           bm.n,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		out.Results = append(out.Results, res)
		ns[res.Name] = res.NsPerOp
		fmt.Printf("%-24s n=%-4d %12.0f ns/op %10d B/op %6d allocs/op\n",
			res.Name, res.N, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	if a, b := ns["ObserveMultiModeLegacy"], ns["ObserveMultiMode"]; b > 0 {
		fmt.Printf("multi-mode decision speedup (legacy/presorted): %.2fx\n", a/b)
	}
	if a, b := ns["TrainWorkers1"], ns["TrainWorkers4"]; b > 0 {
		fmt.Printf("training speedup (1 worker / 4 workers): %.2fx at GOMAXPROCS=%d\n",
			a/b, runtime.GOMAXPROCS(0))
	}

	if old, err := loadDecisionBaseline(path); err != nil {
		return err
	} else if old > 0 && ns["Observe"] > old*observeRegressionLimit {
		return fmt.Errorf("Observe regressed: %.0f ns/op vs baseline %.0f ns/op (>%.0f%% slower); baseline %s left untouched",
			ns["Observe"], old, (observeRegressionLimit-1)*100, path)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadDecisionBaseline returns the checked-in Observe ns/op, 0 when no
// baseline file exists yet.
func loadDecisionBaseline(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	var f dspBenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("parsing baseline %s: %v", path, err)
	}
	for _, r := range f.Results {
		if r.Name == "Observe" {
			return r.NsPerOp, nil
		}
	}
	return 0, nil
}
