package stream

import (
	"runtime"
	"testing"

	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/synthbench"
)

// BenchmarkDetectorFeed times the detector's steady state one window at
// a time: each op feeds one hop of a clean synthetic capture through the
// DC blocker, the real FFT, peak extraction and the K-S decision. It
// reports ns/window and fails if the timed loop allocates. Shapes: the
// fleet capture format (1024-sample window, hop 256) and the pipeline's
// 512/256.
func BenchmarkDetectorFeed(b *testing.B) {
	fleet := synthbench.FleetSTFT()
	pipe := fleet
	pipe.WindowSize, pipe.HopSize = 512, 256
	for _, c := range []struct {
		name string
		stft dsp.STFTConfig
	}{
		{"fleet-1024x256", fleet},
		{"pipeline-512x256", pipe},
	} {
		b.Run(c.name, func(b *testing.B) { benchDetectorFeed(b, c.stft) })
	}
}

func benchDetectorFeed(b *testing.B, stft dsp.STFTConfig) {
	peaks := dsp.DefaultPeakConfig()
	peaks.MinEnergyFraction = 0.02
	peaks.MinBin = 3
	model, _, err := synthbench.TrainSignalModel(4, 200_000, stft, peaks)
	if err != nil {
		b.Fatal(err)
	}
	det, err := NewDetector(model, Config{
		STFT:              stft,
		Peaks:             peaks,
		Monitor:           core.DefaultMonitorConfig(),
		MaxHistoryWindows: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	// The capture's harmonics repeat every 20 samples at 2 MHz, so a
	// length that is a multiple of 20 and of the hop loops seamlessly.
	hop := stft.HopSize
	sig := synthbench.Signal(100*20*hop, stft, 71, 1)
	pos := 0
	next := func() []float64 {
		c := sig[pos : pos+hop]
		if pos += hop; pos == len(sig) {
			pos = 0
		}
		return c
	}
	// Warm up past ring growth and the history-trim onset.
	for i := 0; i < 1000; i++ {
		det.Feed(next())
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	windows := det.Windows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Feed(next())
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	windows = det.Windows() - windows
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(windows), "ns/window")
	if n := ms.Mallocs - mallocs; n != 0 {
		b.Fatalf("steady state made %d allocations over %d windows, want 0", n, windows)
	}
}
