package dsp

import (
	"math"
	"math/cmplx"
	"sync"
)

// This file implements planned transforms: per-size precomputed twiddle
// tables, bit-reversal permutations and Bluestein convolution kernels,
// cached process-wide so repeated transforms of the same size (the STFT
// hot loop, parallel run collection) pay the trigonometry exactly once.
//
// Plans are immutable after construction and therefore safe for
// concurrent use from any number of goroutines. Mutable per-call scratch
// is either caller-provided (RFFTPlan) or drawn from an internal
// sync.Pool (Bluestein convolution buffers).

// FFTPlan holds the precomputed tables for complex transforms of one size.
// A plan is immutable and safe for concurrent use.
type FFTPlan struct {
	n int
	// perm is the bit-reversal permutation (power-of-two sizes only).
	perm []int32
	// stages[s] is the twiddle table of butterfly stage s, whose
	// butterflies span L = 2<<s points: stages[s][k] = exp(-2*pi*i*k/L)
	// for k in [0, L/2). Each entry is copied from the size-n direct
	// table (entry k*n/L), so the kernel reads exactly the values a
	// strided radix-2 kernel would, only contiguously. Power-of-two
	// sizes only.
	stages [][]complex128
	// bs holds the Bluestein kernel for non-power-of-two sizes.
	bs *bluesteinPlan
}

// bluesteinPlan is the precomputed chirp-z kernel for one non-power-of-two
// size: DFT_n(x) re-expressed as a circular convolution of power-of-two
// size m >= 2n-1.
type bluesteinPlan struct {
	m int
	// w[k] = exp(-i*pi*k^2/n) is the forward chirp.
	w []complex128
	// bhat is the forward FFT of the padded chirp-conjugate sequence,
	// shared by every convolution of this size.
	bhat []complex128
	// mp is the power-of-two sub-plan of size m.
	mp *FFTPlan
	// scratch pools *[]complex128 convolution buffers of length m.
	scratch sync.Pool
}

// planCache maps transform size -> *FFTPlan. Misses construct a candidate
// and publish it with LoadOrStore, so concurrent first use of one size
// settles on a single shared plan.
var planCache sync.Map

// PlanFFT returns the cached transform plan for size n (n >= 1), building
// it on first use. The returned plan is shared and concurrency-safe.
func PlanFFT(n int) *FFTPlan {
	if v, ok := planCache.Load(n); ok {
		return v.(*FFTPlan)
	}
	v, _ := planCache.LoadOrStore(n, newFFTPlan(n))
	return v.(*FFTPlan)
}

func newFFTPlan(n int) *FFTPlan {
	p := &FFTPlan{n: n}
	if n&(n-1) == 0 {
		p.perm = bitReversal(n)
		p.stages = stageTwiddles(n)
		return p
	}
	p.bs = newBluesteinPlan(n)
	return p
}

// bitReversal returns the bit-reversal permutation for a power-of-two n.
func bitReversal(n int) []int32 {
	perm := make([]int32, n)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		perm[i] = int32(j)
	}
	return perm
}

// forwardTwiddles returns w[k] = exp(-2*pi*i*k/n) for k in [0, n/2). Each
// factor is computed directly from its angle (no running product), so the
// table carries no accumulated rounding error.
func forwardTwiddles(n int) []complex128 {
	half := n / 2
	tw := make([]complex128, half)
	for k := 0; k < half; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		s, c := math.Sincos(ang)
		tw[k] = complex(c, s)
	}
	return tw
}

// stageTwiddles lays the size-n direct table out per butterfly stage:
// stage s (span L = 2<<s) gets tw[k*n/L] for k in [0, L/2). The tables
// share one backing array of n-1 entries, smallest stage first.
func stageTwiddles(n int) [][]complex128 {
	full := forwardTwiddles(n)
	back := make([]complex128, 0, max(n-1, 0))
	var stages [][]complex128
	for span := 2; span <= n; span <<= 1 {
		lo := len(back)
		for k := 0; k < span/2; k++ {
			back = append(back, full[k*(n/span)])
		}
		stages = append(stages, back[lo:len(back):len(back)])
	}
	return stages
}

func newBluesteinPlan(n int) *bluesteinPlan {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	bp := &bluesteinPlan{m: m, mp: PlanFFT(m)}
	bp.w = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k^2 mod 2n keeps the angle argument small for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := -math.Pi * float64(kk) / float64(n)
		s, c := math.Sincos(ang)
		bp.w[k] = complex(c, s)
	}
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(bp.w[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(bp.w[k])
	}
	bp.mp.forward(b)
	bp.bhat = b
	bp.scratch.New = func() any {
		s := make([]complex128, m)
		return &s
	}
	return bp
}

// Size returns the transform length the plan was built for.
func (p *FFTPlan) Size() int { return p.n }

// Forward computes the DFT of src into dst (dst and src may alias; both
// must have length Size()).
func (p *FFTPlan) Forward(dst, src []complex128) {
	if p.bs != nil {
		p.bs.transform(dst, src, false)
		return
	}
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	p.forward(dst)
}

// Inverse computes the inverse DFT of src into dst, normalized by 1/n.
// It runs the forward kernel through IDFT(x) = conj(DFT(conj(x)))/n.
func (p *FFTPlan) Inverse(dst, src []complex128) {
	if p.bs != nil {
		p.bs.transform(dst, src, true)
	} else {
		p.inverseUnscaled(dst, src)
	}
	inv := complex(1/float64(p.n), 0)
	for i := range dst {
		dst[i] *= inv
	}
}

// inverseUnscaled writes the unnormalized inverse DFT of src into dst
// (power-of-two plans only; dst and src may alias). Conjugating around
// the forward kernel gives, up to the sign of exact zeros, the same bits
// as running it with conjugated twiddles: IEEE rounding commutes with
// negation.
func (p *FFTPlan) inverseUnscaled(dst, src []complex128) {
	dst = dst[:p.n]
	for i, v := range src[:p.n] {
		dst[i] = cmplx.Conj(v)
	}
	p.forward(dst)
	for i, v := range dst {
		dst[i] = cmplx.Conj(v)
	}
}

// forwardTo runs the forward transform in place (any size; Bluestein sizes
// use pooled scratch).
func (p *FFTPlan) forwardTo(x []complex128) {
	if p.bs != nil {
		p.bs.transform(x, x, false)
		return
	}
	p.forward(x)
}

// forward is the in-place power-of-two transform: bit-reversal
// permutation, then the butterfly stages.
func (p *FFTPlan) forward(x []complex128) {
	for i, j := range p.perm {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	p.butterflies(x)
}

// butterflies runs the decimation-in-time stages of a power-of-two
// transform over x, which must already be in bit-reversed order.
//
// Stages 1 and 2 run as one pass over groups of 4, the remaining stages
// in fused pairs (radix-2^2: four loads, two butterfly levels in
// registers, four stores), and a single radix-2 stage finishes when the
// stage count is odd. Each element still goes through the same adds and
// twiddle multiplies, with the same operands in the same order, as in a
// stage-by-stage radix-2 transform; only the k = 0 multiplies by
// exp(0) = (1, -0) are skipped. Skipping them can change nothing but the
// sign of an exact zero (and turn an overflowed Inf*0 = NaN into Inf),
// so every finite non-zero output is bit-identical to the plain kernel's.
func (p *FFTPlan) butterflies(x []complex128) {
	n := p.n
	x = x[:n]
	if n < 4 {
		if n == 2 {
			x[0], x[1] = x[0]+x[1], x[0]-x[1]
		}
		return
	}
	w := p.stages[1][1]
	for s := 0; s+4 <= n; s += 4 {
		q := x[s : s+4 : s+4]
		q[0], q[1], q[2], q[3] = radix4First(q[0], q[1], q[2], q[3], w)
	}
	p.laterStages(x)
}

// radix4First runs stages 1 and 2 on one group of four points. Stage 1's
// only twiddle is (1, -0) and is skipped; w is stage 2's k = 1 twiddle,
// exp(-i*pi/2), whose real part rounds to 6.1e-17 rather than 0, so it
// is multiplied like any other.
func radix4First(a0, a1, a2, a3, w complex128) (c0, c1, c2, c3 complex128) {
	b0, b1 := a0+a1, a0-a1
	b2, b3 := a2+a3, a2-a3
	v := b3 * w
	return b0 + b2, b1 + v, b0 - b2, b1 - v
}

// laterStages runs the butterfly stages from span 8 up over x, whose
// groups of four have been through stages 1 and 2.
func (p *FFTPlan) laterStages(x []complex128) {
	st := 2
	for ; st+1 < len(p.stages); st += 2 {
		radix22(x, p.stages[st], p.stages[st+1])
	}
	if st < len(p.stages) {
		radix2(x, p.stages[st])
	}
}

// radix22 runs two consecutive butterfly stages in one pass: t1 is the
// twiddle table of the stage with half-span h = len(t1), t2 that of the
// next stage (half-span 2h). Each group of 4h points splits into
// quarters q0..q3; for every k the first stage pairs (q0, q1) and
// (q2, q3) under t1[k], the second pairs (q0, q2) under t2[k] and
// (q1, q3) under t2[k+h].
func radix22(x, t1, t2 []complex128) {
	h := len(t1)
	wa, wb := t2[:h], t2[h:2*h]
	for s := 0; s+4*h <= len(x); s += 4 * h {
		q0 := x[s : s+h]
		q1 := x[s+h : s+2*h][:len(q0)]
		q2 := x[s+2*h : s+3*h][:len(q0)]
		q3 := x[s+3*h : s+4*h][:len(q0)]
		w1, w2, w3 := t1[:len(q0)], wa[:len(q0)], wb[:len(q0)]

		// k = 0: t1[0] and t2[0] are (1, -0).
		b0, b1 := q0[0]+q1[0], q0[0]-q1[0]
		b2, b3 := q2[0]+q3[0], q2[0]-q3[0]
		v := b3 * w3[0]
		q0[0], q2[0] = b0+b2, b0-b2
		q1[0], q3[0] = b1+v, b1-v

		for k := 1; k < len(q0); k++ {
			u := q0[k]
			v := q1[k] * w1[k]
			b0, b1 := u+v, u-v
			u = q2[k]
			v = q3[k] * w1[k]
			b2, b3 := u+v, u-v
			v = b2 * w2[k]
			q0[k], q2[k] = b0+v, b0-v
			v = b3 * w3[k]
			q1[k], q3[k] = b1+v, b1-v
		}
	}
}

// radix2 runs one butterfly stage with twiddle table tw (half-span
// len(tw)).
func radix2(x, tw []complex128) {
	h := len(tw)
	for s := 0; s+2*h <= len(x); s += 2 * h {
		lo := x[s : s+h]
		hi := x[s+h : s+2*h][:len(lo)]
		w := tw[:len(lo)]
		u, v := lo[0], hi[0]
		lo[0], hi[0] = u+v, u-v
		for k := 1; k < len(lo); k++ {
			u, v := lo[k], hi[k]*w[k]
			lo[k], hi[k] = u+v, u-v
		}
	}
}

// transform runs the Bluestein convolution. The inverse transform uses the
// conjugation identity IDFT(x) = conj(DFT(conj(x)))/n, so one precomputed
// forward kernel serves both directions (the caller applies the 1/n).
func (bp *bluesteinPlan) transform(dst, src []complex128, inverse bool) {
	n := len(bp.w)
	sp := bp.scratch.Get().(*[]complex128)
	a := *sp
	for k := 0; k < n; k++ {
		v := src[k]
		if inverse {
			v = cmplx.Conj(v)
		}
		a[k] = v * bp.w[k]
	}
	for k := n; k < bp.m; k++ {
		a[k] = 0
	}
	bp.mp.forward(a)
	for i, b := range bp.bhat {
		a[i] *= b
	}
	bp.mp.inverseUnscaled(a, a)
	scale := complex(1/float64(bp.m), 0)
	for k := 0; k < n; k++ {
		v := a[k] * scale * bp.w[k]
		if inverse {
			v = cmplx.Conj(v)
		}
		dst[k] = v
	}
	bp.scratch.Put(sp)
}

// RFFTPlan computes one-sided spectra of real-valued signals. For even
// sizes it packs the signal into a half-size complex transform and
// untwists the result (conjugate symmetry halves the butterfly work); odd
// sizes fall back to a full complex transform. Plans are immutable and
// safe for concurrent use; per-call scratch is caller-provided so the
// caller can amortize it across frames.
type RFFTPlan struct {
	n int
	// half is the size-n/2 complex sub-plan (even n >= 2).
	half *FFTPlan
	// untwist[k] = exp(-2*pi*i*k/n) for k in [0, n/2] (even n).
	untwist []complex128
	// full is the size-n fallback plan (odd n, and n == 1).
	full *FFTPlan
}

// rfftCache maps size -> *RFFTPlan.
var rfftCache sync.Map

// PlanRFFT returns the cached real-input plan for size n (n >= 1).
func PlanRFFT(n int) *RFFTPlan {
	if v, ok := rfftCache.Load(n); ok {
		return v.(*RFFTPlan)
	}
	v, _ := rfftCache.LoadOrStore(n, newRFFTPlan(n))
	return v.(*RFFTPlan)
}

func newRFFTPlan(n int) *RFFTPlan {
	p := &RFFTPlan{n: n}
	if n >= 2 && n%2 == 0 {
		p.half = PlanFFT(n / 2)
		p.untwist = make([]complex128, n/2+1)
		for k := range p.untwist {
			ang := -2 * math.Pi * float64(k) / float64(n)
			s, c := math.Sincos(ang)
			p.untwist[k] = complex(c, s)
		}
		return p
	}
	p.full = PlanFFT(n)
	return p
}

// Size returns the real input length the plan was built for.
func (p *RFFTPlan) Size() int { return p.n }

// SpectrumLen returns the one-sided output length, n/2 + 1.
func (p *RFFTPlan) SpectrumLen() int { return p.n/2 + 1 }

// WorkLen returns the scratch length Transform and PowerInto require.
func (p *RFFTPlan) WorkLen() int {
	if p.full != nil {
		return p.n
	}
	return p.n / 2
}

// Transform computes the one-sided spectrum X[0..n/2] of the length-n real
// signal x into dst (length SpectrumLen()). work must have length
// WorkLen(); pass the same buffer across calls to stay allocation-free.
// The full two-sided spectrum follows from X[n-k] = conj(X[k]).
func (p *RFFTPlan) Transform(dst []complex128, x []float64, work []complex128) {
	p.load(work, x, nil)
	if p.full != nil {
		copy(dst, work[:p.n/2+1])
		return
	}
	p.unpack(dst, nil, work)
}

// PowerInto writes the one-sided power spectrum of x, tapered by the
// analysis window win, into dst (length SpectrumLen()): dst[k] = |X[k]|^2
// where X is the DFT of x[j]*win[j]. A nil win means no taper. work is
// scratch of length WorkLen(). The taper is applied while packing the
// samples, so callers need no windowed copy of the frame.
func (p *RFFTPlan) PowerInto(dst, x, win []float64, work []complex128) {
	p.load(work, x, win)
	if p.full != nil {
		for k := range dst {
			dst[k] = power(work[k])
		}
		return
	}
	p.unpack(nil, dst, work)
}

// load packs the (optionally windowed) real signal into work and runs the
// complex transform. For even n the pairs (x[2j], x[2j+1]) become the
// complex samples of the half-size transform; a power-of-two half plan
// receives them directly in bit-reversed order, so no permutation pass
// runs. Odd n fill a full-size complex transform.
func (p *RFFTPlan) load(work []complex128, x, win []float64) {
	if p.full != nil {
		for i := range work[:p.n] {
			v := x[i]
			if win != nil {
				v *= win[i]
			}
			work[i] = complex(v, 0)
		}
		p.full.forwardTo(work)
		return
	}
	h := p.n / 2
	half := p.half
	if half.bs != nil || h < 4 {
		for j := range work[:h] {
			work[j] = pair(x, win, j)
		}
		half.forwardTo(work)
		return
	}
	// Bit-reversed positions 4m..4m+3 hold Z[r], Z[r+h/2], Z[r+h/4] and
	// Z[r+3h/4], where r = perm[4m]: each group of four is loaded straight
	// from x and goes through stages 1 and 2 before it is stored.
	w := half.stages[1][1]
	for s := 0; s+4 <= h; s += 4 {
		r := int(half.perm[s])
		q := work[s : s+4 : s+4]
		q[0], q[1], q[2], q[3] = radix4First(
			pair(x, win, r), pair(x, win, r+h/2), pair(x, win, r+h/4), pair(x, win, r+3*h/4), w)
	}
	half.laterStages(work)
}

// pair returns packed sample j of the half-size transform,
// (x[2j]*win[2j], x[2j+1]*win[2j+1]), untapered when win is nil.
func pair(x, win []float64, j int) complex128 {
	if win == nil {
		return complex(x[2*j], x[2*j+1])
	}
	return complex(x[2*j]*win[2*j], x[2*j+1]*win[2*j+1])
}

// unpack recovers the one-sided spectrum of the real signal from the
// packed half-size transform Z in work, writing the bins to spec and/or
// their powers to pow (either may be nil):
//
//	X[k] = E[k] + exp(-2*pi*i*k/n)*O[k]
//	E[k] = (Z[k] + conj(Z[h-k]))/2,  O[k] = -i*(Z[k] - conj(Z[h-k]))/2
//
// with indices modulo h, so bins 0 and h both read Z[0]. Bins k and
// l = h-k read the same two values and are recovered together: bin l
// reuses bin k's sums and differences, negated where the roles of Z[k]
// and Z[l] swap. The halving and the -i rotation are written out on the
// real and imaginary parts rather than as complex multiplies by 0.5 and
// -0.5i. Both rewrites are exact in IEEE arithmetic up to the sign of
// an exact zero (the dropped products are by zero); the untwist factor
// is still applied as the same complex multiply.
func (p *RFFTPlan) unpack(spec []complex128, pow []float64, work []complex128) {
	h := p.n / 2
	work = work[:h]
	tw := p.untwist[:h+1]
	emit := func(k int, v complex128) {
		if spec != nil {
			spec[k] = v
		}
		if pow != nil {
			pow[k] = power(v)
		}
	}
	for k := 0; k <= h/2; k++ {
		l := h - k
		a, b := work[k], work[0]
		if k > 0 {
			b = work[l]
		}
		sr, si := real(a)+real(b), imag(a)-imag(b)
		dr, di := real(a)-real(b), imag(a)+imag(b)
		e, o := complex(sr*0.5, si*0.5), complex(di*0.5, -(dr*0.5))
		emit(k, e+tw[k]*o)
		if l != k {
			e, o = complex(sr*0.5, -(si*0.5)), complex(di*0.5, dr*0.5)
			emit(l, e+tw[l]*o)
		}
	}
}

// power returns |v|^2.
func power(v complex128) float64 {
	re, im := real(v), imag(v)
	return re*re + im*im
}
