package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"eddie/internal/dsp"
)

// dspBenchResult is one kernel's measurement in BENCH_dsp.json.
type dspBenchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"` // transform or signal size
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// dspBenchFile is the top-level schema of BENCH_dsp.json. The host
// fields say where the numbers were taken: absolute ns/op only compare
// between files recorded on the same CPU model and GOMAXPROCS.
type dspBenchFile struct {
	GoVersion  string           `json:"go_version"`
	CPUModel   string           `json:"cpu_model,omitempty"`
	NumCPU     int              `json:"num_cpu,omitempty"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Results    []dspBenchResult `json:"results"`
}

// newBenchFile returns an empty results file stamped with this host's
// Go version, CPU model, CPU count and GOMAXPROCS.
func newBenchFile() dspBenchFile {
	return dspBenchFile{
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo, falling back to
// the architecture name where that file does not exist.
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

// runDSPBench times the DSP kernels with the stdlib benchmark driver and
// writes the results as JSON. The same kernels are covered by the
// go-test benchmarks in internal/dsp; this mode exists so the numbers can
// be captured by scripts without parsing `go test -bench` text output.
func runDSPBench(path string) error {
	sig := make([]float64, 1<<17)
	for i := range sig {
		sig[i] = math.Sin(2*math.Pi*float64(i)/64) + 0.25*math.Sin(2*math.Pi*float64(i)/7)
	}
	stftCfg := dsp.STFTConfig{WindowSize: 1024, HopSize: 512, Window: dsp.Hann, SampleRate: 1e6}

	benches := []kernelBench{
		{"FFTPow2", 1024, func(b *testing.B) {
			x := make([]complex128, 1024)
			for i := range x {
				x[i] = complex(sig[i], 0)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dsp.FFT(x)
			}
		}},
		{"FFTBluestein", 1000, func(b *testing.B) {
			x := make([]complex128, 1000)
			for i := range x {
				x[i] = complex(sig[i], 0)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dsp.FFT(x)
			}
		}},
		{"FFTReal", 1024, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dsp.FFTReal(sig[:1024])
			}
		}},
		{"RFFTPower", 512, rfftPowerBench(sig[:512])},
		{"RFFTPower", 1024, rfftPowerBench(sig[:1024])},
		{"STFT", len(sig), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dsp.STFT(sig, stftCfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"PowerSpectrum", 1 << 14, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dsp.PowerSpectrum(sig[:1<<14])
			}
		}},
	}
	// The subspace kernels ride along so BENCH_dsp.json stays the one
	// per-kernel reference file; -denoise-bench runs just them, gated.
	benches = append(benches, denoiseBenches()...)

	out := newBenchFile()
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
		fmt.Printf("%-16s n=%-7d %12.0f ns/op %10d B/op %6d allocs/op\n",
			res.Name, res.N, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// rfftPowerBench times one Hann-tapered power spectrum of the frame x
// through a reused plan and scratch: the per-window transform of the
// streaming detector.
func rfftPowerBench(x []float64) func(b *testing.B) {
	return func(b *testing.B) {
		n := len(x)
		plan := dsp.PlanRFFT(n)
		win := dsp.Window(dsp.Hann, n)
		power := make([]float64, plan.SpectrumLen())
		work := make([]complex128, plan.WorkLen())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan.PowerInto(power, x, win, work)
		}
	}
}
