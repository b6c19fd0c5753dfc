package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// ksStatMergeRef is the O(m+n) merge walk the breakpoint kernel replaced:
// it steps through every distinct value of the union of two sorted
// samples and takes the largest |F_a - F_b| it sees. It is the oracle the
// kernel must match bit for bit. It does not terminate on NaN input.
func ksStatMergeRef(as, bs []float64) float64 {
	var i, j int
	var d float64
	m := float64(len(as))
	n := float64(len(bs))
	for i < len(as) && j < len(bs) {
		x := math.Min(as[i], bs[j])
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/m - float64(j)/n)
		if diff > d {
			d = diff
		}
	}
	return d
}

// requireKSMatchesMerge checks the kernel's D, and its early-exit verdict
// at cAlpha, against the merge oracle in both argument orders.
func requireKSMatchesMerge(t *testing.T, as, bs []float64, cAlpha float64) {
	t.Helper()
	for _, p := range [2][2][]float64{{as, bs}, {bs, as}} {
		a, b := p[0], p[1]
		want := ksStatMergeRef(a, b)
		if got := KSStatisticPresorted(a, b); got != want {
			t.Fatalf("m=%d n=%d: breakpoint D %v != merge D %v\na=%v\nb=%v", len(a), len(b), got, want, a, b)
		}
		d, crit := KSRejectStatPresorted(a, b, cAlpha)
		if d != want {
			t.Fatalf("m=%d n=%d: KSRejectStatPresorted D %v != merge D %v", len(a), len(b), d, want)
		}
		if got := KSRejectPresorted(a, b, cAlpha); got != (want > crit) {
			t.Fatalf("m=%d n=%d: early-exit verdict %v, merge D %v vs crit %v", len(a), len(b), got, want, crit)
		}
	}
}

// TestKSBreakpointMatchesMerge pins the breakpoint kernel to the merge
// oracle on the shapes and value patterns the decision path meets: heavy
// ties, all-equal samples, infinities, disjoint samples, and m>>n, n>>m
// and n~m sizes.
func TestKSBreakpointMatchesMerge(t *testing.T) {
	const cAlpha = 1.6276 // ~99% confidence
	inf := math.Inf(1)
	fixed := []struct{ a, b []float64 }{
		{[]float64{1}, []float64{1}},
		{[]float64{2, 2, 2, 2}, []float64{2, 2}},
		{[]float64{1, 2, 3}, []float64{4, 5}},
		{[]float64{4, 5}, []float64{1, 2, 3}},
		{[]float64{-inf, 0, inf}, []float64{-inf, -inf, inf}},
		{[]float64{-inf, -inf}, []float64{inf, inf, inf}},
		{[]float64{0, 1, 1, 1, 2}, []float64{1}},
	}
	for _, c := range fixed {
		requireKSMatchesMerge(t, c.a, c.b, cAlpha)
	}
	rng := rand.New(rand.NewSource(23))
	draw := func(k, levels int, shift float64) []float64 {
		xs := make([]float64, k)
		for i := range xs {
			if levels > 0 {
				xs[i] = math.Floor(rng.Float64()*float64(levels)) + shift
			} else {
				xs[i] = rng.NormFloat64() + shift
			}
		}
		sort.Float64s(xs)
		return xs
	}
	for _, sh := range [][2]int{{778, 8}, {778, 96}, {8, 778}, {200, 96}, {500, 500}, {64, 64}, {65, 64}, {1, 300}} {
		for _, levels := range []int{0, 1, 3, 40} {
			for _, shift := range []float64{0, 0.4, 1e3} {
				for trial := 0; trial < 4; trial++ {
					requireKSMatchesMerge(t, draw(sh[0], levels, 0), draw(sh[1], levels, shift), cAlpha)
				}
			}
		}
	}
}

// TestKSNonFiniteTerminates is the regression test for the merge walk's
// hang on NaN: KSTest rejects non-finite samples with an error, and the
// statistic itself returns on any input.
func TestKSNonFiniteTerminates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, c := range []struct{ a, b []float64 }{
			{[]float64{1, nan, 3}, []float64{2, 4}},
			{[]float64{2, 4}, []float64{1, nan, 3}},
			{[]float64{nan, nan}, []float64{nan}},
			{[]float64{1, 2, 3}, []float64{-inf, 2}},
		} {
			if _, err := KSTest(c.a, c.b, 0.01); err == nil {
				t.Errorf("KSTest(%v, %v) accepted a non-finite sample", c.a, c.b)
			}
			if d := KSStatistic(c.a, c.b); d < 0 || d > 1 {
				t.Errorf("KSStatistic(%v, %v) = %v outside [0,1]", c.a, c.b, d)
			}
			// Presorted callers may hand over NaN in any position.
			KSStatisticPresorted(c.a, c.b)
			KSRejectPresorted(c.b, c.a, 1.36)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("K-S on non-finite input did not return within 10s")
	}
}

// ksSink keeps benchmarked statistics live.
var ksSink float64

// BenchmarkKSStatShapes times the merge oracle against the breakpoint
// kernel (full D, no early exit) at the decision path's (m, n) shapes:
// fleet references against small and maximal groups, and the n~m shapes
// of training's group-size sweep and detectable-shift probe.
func BenchmarkKSStatShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	draw := func(k int) []float64 {
		xs := make([]float64, k)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		sort.Float64s(xs)
		return xs
	}
	for _, sh := range [][2]int{{778, 8}, {778, 96}, {200, 96}, {500, 500}, {64, 64}} {
		ref, mon := draw(sh[0]), draw(sh[1])
		for _, k := range []struct {
			name string
			fn   func(as, bs []float64) float64
		}{{"merge", ksStatMergeRef}, {"breakpoint", KSStatisticPresorted}} {
			b.Run(fmt.Sprintf("m%d_n%d/%s", sh[0], sh[1], k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ksSink = k.fn(ref, mon)
				}
			})
		}
	}
}
