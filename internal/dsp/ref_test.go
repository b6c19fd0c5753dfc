package dsp

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// This file keeps the plain stage-by-stage radix-2 kernel and the
// modulo untwist that the fused kernel replaced, as the oracle the
// production transforms must reproduce: bitwise-equal power spectra, and
// complex outputs equal up to the sign of exact zeros, whenever the
// oracle's transform is finite.

// radix2Ref is the in-place radix-2 transform the fused kernel replaced:
// bit-reversal swaps, then log2(n) passes reading the size-n direct
// twiddle table with stride n/L and multiplying every butterfly,
// conjugating the twiddles for the (unnormalized) inverse.
func radix2Ref(x []complex128, inverse bool) {
	n := len(x)
	if n < 2 {
		return
	}
	for i, j := range bitReversal(n) {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := forwardTwiddles(n)
	for length := 2; length <= n; length <<= 1 {
		half := length >> 1
		step := n / length
		for start := 0; start < n; start += length {
			ti := 0
			for k := start; k < start+half; k++ {
				w := tw[ti]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				ti += step
				u := x[k]
				v := x[k+half] * w
				x[k] = u + v
				x[k+half] = u - v
			}
		}
	}
}

// fftRef and ifftRef are the power-of-two Forward and Inverse on the
// reference kernel.
func fftRef(x []complex128) []complex128 {
	y := append([]complex128(nil), x...)
	radix2Ref(y, false)
	return y
}

func ifftRef(x []complex128) []complex128 {
	y := append([]complex128(nil), x...)
	radix2Ref(y, true)
	inv := complex(1/float64(len(y)), 0)
	for i := range y {
		y[i] *= inv
	}
	return y
}

// rfftRef is the real-input path the fused one replaced, for even
// power-of-two n: a windowed copy, natural-order packing, the half-size
// reference kernel and the modulo untwist. win may be nil.
func rfftRef(x, win []float64) []complex128 {
	n := len(x)
	windowed := make([]float64, n)
	for j := range x {
		windowed[j] = x[j]
		if win != nil {
			windowed[j] = x[j] * win[j]
		}
	}
	h := n / 2
	work := make([]complex128, h)
	for j := 0; j < h; j++ {
		work[j] = complex(windowed[2*j], windowed[2*j+1])
	}
	radix2Ref(work, false)
	out := make([]complex128, h+1)
	for k := 0; k <= h; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		s, c := math.Sincos(ang)
		zk := work[k%h]
		zr := cmplx.Conj(work[(h-k)%h])
		e := (zk + zr) * 0.5
		o := (zk - zr) * complex(0, -0.5)
		out[k] = e + complex(c, s)*o
	}
	return out
}

func powerRef(spec []complex128) []float64 {
	out := make([]float64, len(spec))
	for k, v := range spec {
		re, im := real(v), imag(v)
		out[k] = re*re + im*im
	}
	return out
}

func allFinite(v []complex128) bool {
	for _, c := range v {
		if math.IsNaN(real(c)) || math.IsNaN(imag(c)) || math.IsInf(real(c), 0) || math.IsInf(imag(c), 0) {
			return false
		}
	}
	return true
}

// sameUpToZeroSign reports whether a and b are bitwise equal except
// possibly for the sign of exact zeros.
func sameUpToZeroSign(a, b complex128) bool {
	eq := func(x, y float64) bool {
		return x == y || math.Float64bits(x) == math.Float64bits(y)
	}
	return eq(real(a), real(b)) && eq(imag(a), imag(b))
}

// checkAgainstRef asserts the kernel contract for one real frame x
// (power-of-two length >= 2) and window win (nil: untapered): the real
// path's power spectrum is bitwise the oracle's and its spectrum equal
// up to zero signs; FFT and IFFT of the packed complex sequence match
// the oracle the same way. When the oracle overflows, the production
// output must be non-finite too.
func checkAgainstRef(t *testing.T, x, win []float64) {
	t.Helper()
	n := len(x)
	plan := PlanRFFT(n)
	work := make([]complex128, plan.WorkLen())
	got := make([]float64, plan.SpectrumLen())
	plan.PowerInto(got, x, win, work)
	var xw []float64
	if win != nil {
		xw = make([]float64, n)
		for j := range x {
			xw[j] = x[j] * win[j]
		}
	} else {
		xw = x
	}
	spec := make([]complex128, plan.SpectrumLen())
	plan.Transform(spec, xw, work)

	wantSpec := rfftRef(x, win)
	want := powerRef(wantSpec)
	if !allFinite(wantSpec) {
		if allFinite(spec) {
			t.Fatalf("n=%d: oracle spectrum overflowed, production is finite", n)
		}
	} else {
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("n=%d bin %d: power %v (%#x), oracle %v (%#x)",
					n, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
			}
			if !sameUpToZeroSign(spec[k], wantSpec[k]) {
				t.Fatalf("n=%d bin %d: spectrum %v, oracle %v", n, k, spec[k], wantSpec[k])
			}
		}
	}

	z := make([]complex128, n/2)
	for j := range z {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	for _, c := range []struct {
		name      string
		got, want []complex128
	}{
		{"FFT", FFT(z), fftRef(z)},
		{"IFFT", IFFT(z), ifftRef(z)},
	} {
		if !allFinite(c.want) {
			if allFinite(c.got) {
				t.Fatalf("%s n=%d: oracle overflowed, production is finite", c.name, len(z))
			}
			continue
		}
		for k := range c.want {
			if !sameUpToZeroSign(c.got[k], c.want[k]) {
				t.Fatalf("%s n=%d bin %d: %v, oracle %v", c.name, len(z), k, c.got[k], c.want[k])
			}
		}
	}
}

// TestRFFTPowerMatchesRef pins the fused kernel to the plain radix-2
// oracle over every power-of-two size from 2 to 4096 and inputs chosen
// to exercise exact zeros (small integers, sparse tiny values), large
// magnitudes and ordinary noise, with and without a Hann taper.
func TestRFFTPowerMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	inputs := []struct {
		name string
		gen  func(n int) []float64
	}{
		{"gaussian", func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = r.NormFloat64()
			}
			return x
		}},
		{"small-ints", func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(r.Intn(7) - 3)
			}
			return x
		}},
		{"tone-1e3", func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = 1e3 * math.Sin(2*math.Pi*5*float64(i)/float64(n))
			}
			return x
		}},
		{"sparse-1e-200", func(n int) []float64 {
			x := make([]float64, n)
			for i := 0; i < 3; i++ {
				x[r.Intn(n)] = 1e-200 * float64(1+i)
			}
			return x
		}},
	}
	for n := 2; n <= 4096; n <<= 1 {
		for _, in := range inputs {
			x := in.gen(n)
			checkAgainstRef(t, x, nil)
			checkAgainstRef(t, x, Window(Hann, n))
		}
	}
}

// decodeRFFTFuzz maps fuzz bytes to a power-of-two frame: data[0] picks
// the size (2..4096), data[1]'s low bit a Hann taper, and the rest are
// float64 bit patterns (so NaN, ±Inf, denormals and near-overflow values
// occur), repeated to fill the frame.
func decodeRFFTFuzz(data []byte) (x, win []float64) {
	if len(data) < 2 {
		return nil, nil
	}
	n := 2 << (int(data[0]) % 12)
	vals := data[2:]
	x = make([]float64, n)
	if m := len(vals) / 8; m > 0 {
		for i := range x {
			j := i % m
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*j:]))
		}
	}
	if data[1]&1 == 1 {
		win = Window(Hann, n)
	}
	return x, win
}

func rfftFuzzSeed(sizeSel, winSel byte, vals ...float64) []byte {
	b := []byte{sizeSel, winSel}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzRFFTPower holds the production FFT, IFFT and real power spectrum
// to the radix-2 oracle under checkAgainstRef's contract for arbitrary
// frames.
func FuzzRFFTPower(f *testing.F) {
	f.Add(rfftFuzzSeed(9, 0))                                  // zeros, n=1024
	f.Add(rfftFuzzSeed(8, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)) // impulse train
	f.Add(rfftFuzzSeed(0, 0, 1))                               // n=2, constant
	f.Add(rfftFuzzSeed(9, 1, 1, -1))                           // alternating ±1
	f.Add(rfftFuzzSeed(5, 0, 5e-324, -5e-324, 2.2e-308, 0))    // denormals
	f.Add(rfftFuzzSeed(9, 1, 1e160, -3e159, 7e158))            // huge but squarable
	f.Add(rfftFuzzSeed(7, 0, math.MaxFloat64, -math.MaxFloat64, 1e307))
	f.Add(rfftFuzzSeed(4, 0, math.MaxFloat64, 0, 0, 0)) // overflow next to zeros
	f.Add(rfftFuzzSeed(3, 1, math.Inf(1), 1, math.NaN(), -0.0))
	f.Add(rfftFuzzSeed(11, 0, 0.1, 0.7, -0.3, 2.5, -1e-3))
	f.Fuzz(func(t *testing.T, data []byte) {
		x, win := decodeRFFTFuzz(data)
		if x == nil {
			t.Skip()
		}
		checkAgainstRef(t, x, win)
	})
}
