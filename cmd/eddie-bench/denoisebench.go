package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"eddie/internal/dsp"
)

// kernelBench names one stdlib-driver benchmark that lands in a JSON
// results file (shared by the dsp and denoise modes).
type kernelBench struct {
	name string
	n    int
	fn   func(b *testing.B)
}

// denoisePushRegressionLimit is the accepted slowdown of the
// steady-state DenoisePush benchmark against the checked-in
// BENCH_denoise.json before the run fails (leaving the baseline file
// untouched).
const denoisePushRegressionLimit = 1.20

// denoiseBenches builds the subspace-kernel benchmarks at the
// spectrogram shape the stream detector actually runs (257 bins from a
// 512-sample window, block 32, rank 6).
func denoiseBenches() []kernelBench {
	const (
		bins  = 257
		block = 32
		rank  = 6
	)
	// Synthetic power spectra: a few stable tones over a noise floor,
	// drifting slowly so refactors have real work to do.
	spectra := make([][]float64, 256)
	for w := range spectra {
		col := make([]float64, bins)
		for i := range col {
			col[i] = 1e-3 + 1e-4*math.Sin(float64(i*w+1))*math.Sin(float64(i*w+1))
		}
		for _, tone := range []int{17, 63, 120, 201} {
			col[tone+w%3] += 2.5
		}
		spectra[w] = col
	}

	return []kernelBench{
		{"RSVDFactor", bins, func(b *testing.B) {
			s, err := dsp.NewRSVD(dsp.RSVDConfig{Rank: rank, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			a := dsp.NewMat(bins, block)
			for j := 0; j < block; j++ {
				copy(a.Col(j), spectra[j])
			}
			u := dsp.NewMat(bins, rank)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Factor(u, a, uint64(i)+1)
			}
		}},
		{"Orthonormalize", bins, func(b *testing.B) {
			src := dsp.NewMat(bins, rank+4)
			for j := 0; j < src.Cols; j++ {
				copy(src.Col(j), spectra[j])
			}
			q := dsp.NewMat(bins, rank+4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.CopyFrom(src)
				dsp.Orthonormalize(q)
			}
		}},
		{"DenoisePush", bins, func(b *testing.B) {
			dn, err := dsp.NewDenoiser(dsp.DenoiseConfig{Rank: rank, Block: block, Stride: 8}, bins)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]float64, bins)
			for w := 0; w < 2*block; w++ { // warm past the fill phase
				copy(buf, spectra[w%len(spectra)])
				dn.Push(buf)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, spectra[i%len(spectra)])
				dn.Push(buf)
			}
		}},
	}
}

// runDenoiseBench times the subspace-denoising kernels and writes
// BENCH_denoise.json (same schema as BENCH_dsp.json). The steady-state
// DenoisePush benchmark — the per-window cost the stream detector pays
// when denoising is on — is regression-gated: if it lands >20% over the
// checked-in baseline the run fails and the baseline file is left
// untouched, mirroring the decision-bench gate.
func runDenoiseBench(path string) error {
	out := newBenchFile()
	ns := map[string]float64{}
	for _, bm := range denoiseBenches() {
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
		fmt.Printf("%-16s n=%-7d %12.0f ns/op %10d B/op %6d allocs/op\n",
			res.Name, res.N, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}

	if old, err := loadBaselineNs(path, "DenoisePush"); err != nil {
		return err
	} else if old > 0 && ns["DenoisePush"] > old*denoisePushRegressionLimit {
		return fmt.Errorf("DenoisePush regressed: %.0f ns/op vs baseline %.0f ns/op (>%.0f%% slower); baseline %s left untouched",
			ns["DenoisePush"], old, (denoisePushRegressionLimit-1)*100, path)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadBaselineNs returns the named benchmark's checked-in ns/op, 0 when
// no baseline file exists yet or the entry is absent.
func loadBaselineNs(path, name string) (float64, error) {
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
		if r.Name == name {
			return r.NsPerOp, nil
		}
	}
	return 0, nil
}
