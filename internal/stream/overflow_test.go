package stream

import (
	"math"
	"testing"

	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/pipeline"
	"eddie/internal/pipeline/pipetest"
)

// TestDetectorHugeAmplitudeChunk splices a finite but huge-amplitude
// burst into the middle of a clean stream: a 1e160 tone, whose power
// spectrum overflows to Inf, and near-MaxFloat64 noise, which overflows
// inside the transform (Inf-Inf bins read NaN). No STS may carry a NaN
// peak frequency or energy, the overflowed windows must report no
// peaks, every window clear of the burst must reduce exactly as in the
// clean run, and the monitor must keep deciding and drop the alarm.
func TestDetectorHugeAmplitudeChunk(t *testing.T) {
	f := pipetest.Fixture(t)
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	sig := dsp.Detrend(run.Signal)
	collect := func(chunks ...[]float64) ([]core.STS, *core.Monitor) {
		cfg := streamCfg(f.Config)
		cfg.DisableDCBlock = true
		var out []core.STS
		cfg.Tap = func(s *core.STS) {
			c := *s
			c.PeakFreqs = append([]float64(nil), s.PeakFreqs...)
			out = append(out, c)
		}
		d, err := NewDetector(f.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			d.Feed(c)
		}
		return out, d.Monitor()
	}
	ref, _ := collect(sig)

	ws, hop := f.Config.STFT.WindowSize, f.Config.STFT.HopSize
	if ws%hop != 0 {
		t.Fatalf("window %d not a multiple of hop %d", ws, hop)
	}
	mid := len(sig) / 2 / hop * hop
	burstLen := 3 * ws
	shift := burstLen / hop
	first := mid/hop - ws/hop + 1  // first window touching the burst
	last := (mid+burstLen)/hop - 1 // last window touching the burst

	for _, c := range []struct {
		name string
		gen  func(i int) float64
	}{
		{"tone-1e160", func(i int) float64 { return 1e160 * math.Sin(2*math.Pi*37*float64(i)/float64(ws)) }},
		{"noise-max", func(i int) float64 { return math.MaxFloat64 * math.Sin(float64(i*i)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			burst := make([]float64, burstLen)
			for i := range burst {
				burst[i] = c.gen(i)
			}
			got, mon := collect(sig[:mid], burst, sig[mid:])
			if len(got) != len(ref)+shift {
				t.Fatalf("%d windows, want %d", len(got), len(ref)+shift)
			}
			overflowed := 0
			for i, s := range got {
				for _, fr := range s.PeakFreqs {
					if math.IsNaN(fr) {
						t.Fatalf("window %d: NaN peak frequency", i)
					}
				}
				if math.IsNaN(s.Energy) {
					t.Fatalf("window %d: NaN energy", i)
				}
				if math.IsInf(s.Energy, 1) {
					overflowed++
					if len(s.PeakFreqs) != 0 {
						t.Fatalf("window %d: overflowed spectrum gave peaks %v", i, s.PeakFreqs)
					}
				}
				switch {
				case i < first && !sameSTS(s, ref[i]):
					t.Fatalf("window %d before the burst differs from the clean run", i)
				case i > last && !sameSTS(s, ref[i-shift]):
					t.Fatalf("window %d after the burst differs from clean window %d", i, i-shift)
				}
			}
			if overflowed == 0 {
				t.Fatal("no window overflowed; the burst does not exercise the overflow path")
			}
			if len(mon.Outcomes) != len(got) {
				t.Fatalf("monitor decided %d of %d windows", len(mon.Outcomes), len(got))
			}
			if mon.Outcomes[len(got)-1].Flagged {
				t.Errorf("alarm still raised %d clean windows after the burst", len(got)-1-last)
			}
		})
	}
}

// sameSTS compares the reduced content of two windows bit for bit
// (their times differ by the burst's length).
func sameSTS(a, b core.STS) bool {
	return math.Float64bits(a.Energy) == math.Float64bits(b.Energy) && sameBits(a.PeakFreqs, b.PeakFreqs)
}
