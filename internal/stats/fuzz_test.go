package stats

import (
	"math"
	"sort"
	"testing"
)

// ksFuzzSample decodes fuzz bytes into a K-S sample: 254 and 255 are
// -Inf and +Inf, every other byte v is v/div (div 3 gives non-integral
// values with frequent ties).
func ksFuzzSample(bs []byte, div float64) []float64 {
	xs := make([]float64, len(bs))
	for i, v := range bs {
		switch v {
		case 254:
			xs[i] = math.Inf(-1)
		case 255:
			xs[i] = math.Inf(1)
		default:
			xs[i] = float64(v) / div
		}
	}
	return xs
}

// ksShapeSeed returns k bytes cycling through [base, base+span), a
// checked-in seed of a chosen size and tie density.
func ksShapeSeed(k int, base, span byte) []byte {
	bs := make([]byte, k)
	for i := range bs {
		bs[i] = base + byte(i*7)%span
	}
	return bs
}

// addKSShapeSeeds adds the shared K-S seeds after a target's own: heavy
// ties, all-equal samples, infinities, disjoint samples, and the m>>n,
// n>>m and n~m shapes. Extra arguments are appended to every seed.
func addKSShapeSeeds(f *testing.F, extra ...any) {
	seeds := [][2][]byte{
		{{5, 5, 5, 6, 6, 5, 5}, {5, 6, 6, 6}},
		{{7, 7, 7, 7, 7}, {7, 7}},
		{{254, 0, 10, 255, 255}, {254, 254, 3, 255}},
		{{1, 2, 3, 4}, {100, 101, 102}},
		{ksShapeSeed(778, 0, 200), ksShapeSeed(8, 40, 100)},
		{ksShapeSeed(8, 40, 100), ksShapeSeed(778, 0, 200)},
		{ksShapeSeed(300, 0, 120), ksShapeSeed(290, 3, 120)},
	}
	for _, s := range seeds {
		f.Add(append([]any{s[0], s[1]}, extra...)...)
	}
}

// FuzzKSPresorted asserts the presorted decision kernel is bit-identical
// to the merge-walk oracle on arbitrary inputs, in both argument orders,
// and to the copy-and-sort kernel: same statistic, same critical value,
// same verdict. This is the contract the monitor's sort-once hot path
// rests on.
func FuzzKSPresorted(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{4, 3, 2, 1}, 0.01)
	f.Add([]byte{0, 0, 0}, []byte{0, 0}, 0.05)
	f.Add([]byte{9}, []byte{9, 9, 9, 200}, 0.001)
	addKSShapeSeeds(f, 0.01)
	f.Fuzz(func(t *testing.T, refB, monB []byte, alpha float64) {
		if len(refB) == 0 || len(monB) == 0 || len(refB)+len(monB) > 1024 {
			t.Skip()
		}
		if math.IsNaN(alpha) || alpha <= 0 || alpha >= 1 {
			alpha = 0.01
		}
		cAlpha := KolmogorovInverse(1 - alpha)
		ref := ksFuzzSample(refB, 3)
		mon := ksFuzzSample(monB, 3)
		sort.Float64s(ref)
		scratch := make([]float64, len(mon))
		wantD, wantCrit := KSRejectStatSorted(ref, mon, scratch, cAlpha)
		wantReject := KSRejectSorted(ref, mon, scratch, cAlpha)
		monSorted := append([]float64(nil), mon...)
		Sort(monSorted)
		requireKSMatchesMerge(t, ref, monSorted, cAlpha)
		gotD, gotCrit := KSRejectStatPresorted(ref, monSorted, cAlpha)
		if gotD != wantD || gotCrit != wantCrit {
			t.Fatalf("presorted (d=%g, crit=%g) != copy-and-sort (d=%g, crit=%g)", gotD, gotCrit, wantD, wantCrit)
		}
		if got := KSRejectPresorted(ref, monSorted, cAlpha); got != wantReject {
			t.Fatalf("presorted verdict %v != copy-and-sort verdict %v", got, wantReject)
		}
	})
}

// FuzzKSStatistic checks the two-sample K-S statistic on arbitrary
// samples: bit-identical to the merge-walk oracle in both argument
// orders, within [0,1], symmetric, zero against itself.
func FuzzKSStatistic(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 2, 1})
	f.Add([]byte{0}, []byte{255})
	addKSShapeSeeds(f)
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		if len(ab) == 0 || len(bb) == 0 || len(ab)+len(bb) > 2048 {
			t.Skip()
		}
		a := ksFuzzSample(ab, 1)
		b := ksFuzzSample(bb, 1)
		d := KSStatistic(a, b)
		as := append([]float64(nil), a...)
		bs := append([]float64(nil), b...)
		sort.Float64s(as)
		sort.Float64s(bs)
		if want := ksStatMergeRef(as, bs); d != want {
			t.Fatalf("KSStatistic %v != merge oracle %v", d, want)
		}
		if want := ksStatMergeRef(bs, as); KSStatistic(b, a) != want {
			t.Fatalf("KSStatistic (swapped) %v != merge oracle %v", KSStatistic(b, a), want)
		}
		if d < 0 || d > 1 {
			t.Fatalf("D = %g outside [0,1]", d)
		}
		if d2 := KSStatistic(b, a); d != d2 {
			t.Fatalf("asymmetric: %g vs %g", d, d2)
		}
		if KSStatistic(a, a) != 0 {
			t.Fatal("self-distance nonzero")
		}
	})
}

// FuzzECDF checks ECDF bounds and monotonicity for arbitrary samples.
func FuzzECDF(f *testing.F) {
	f.Add([]byte{5, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 2048 {
			t.Skip()
		}
		s := make([]float64, len(data))
		for i, v := range data {
			s[i] = float64(v)
		}
		e, err := NewECDF(s)
		if err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		for x := -1.0; x <= 256; x += 16 {
			v := e.At(x)
			if v < prev || v < 0 || v > 1 {
				t.Fatalf("ECDF not monotone in [0,1] at %g: %g (prev %g)", x, v, prev)
			}
			prev = v
		}
		if e.At(256) != 1 {
			t.Fatal("ECDF must reach 1 beyond the maximum")
		}
	})
}
